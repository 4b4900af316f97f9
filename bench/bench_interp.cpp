// Execution-engine throughput: the compiled bytecode VM vs. the
// recursive AST walker vs. the native (C-compiled) engine on the same
// programs and inputs, across the kernels semantic verification
// actually runs — Cholesky, LU, a 2-D stencil, and the skewed
// (wavefront) form of that stencil, at several problem sizes.
//
// Each measurement times `interpret()` end to end (the VM side
// includes bytecode compilation; the native side runs after one
// untimed warmup, so its timed runs hit the in-process kernel cache —
// exactly what a verification sweep over many seeds sees). Within a
// (kernel, N) cell the engines run interleaved, in turns of a few
// milliseconds each, so a change of host state hits all of them alike;
// each engine's throughput comes from its fastest timed run, which
// host load moves least. Emits
// BENCH_interp.json (override with --out=PATH) and, when a C compiler
// is available, BENCH_native.json (--native-out=PATH) with the
// machine-independent facts the regression gate wants: native results
// bit-identical to the VM on every kernel and size, zero recompiles on
// a second (disk-cached) pass, and the geomean native-vs-VM throughput
// ratio at the largest size. Without a compiler the native report
// records {"unavailable": true} and the gates skip. Unknown
// --benchmark_* flags are accepted and ignored so the binary can run
// under the same harness invocation as the google-benchmark suites.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "codegen/generate.hpp"
#include "exec/interp.hpp"
#include "exec/native.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "support/stats.hpp"
#include "transform/transforms.hpp"

namespace {

using namespace inlt;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Program stencil() {
  return parse_program(R"(
param N
do I = 1, N
  do J = 1, N
    S1: U(I, J) = U(I - 1, J) + U(I, J - 1)
  end
end
)");
}

Program skewed_wavefront() {
  // The classic transformed shape: stencil with J skewed by I — cover
  // bounds and a wavefront traversal, the generated-code case.
  Program p = stencil();
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  return generate_code(layout, deps, loop_skew(layout, "J", "I", 1)).program;
}

struct Kernel {
  std::string name;
  Program (*make)();
};

struct EngineRun {
  double seconds = 0;  // total measured interpret() time
  double best = 0;     // fastest single run
  i64 runs = 0;
  i64 instances = 0;   // per run
  // From the fastest run: on a shared host the mean over the budget
  // carries every other tenant's interference, the minimum the least.
  double ips() const {
    return best > 0 ? static_cast<double>(instances) / best : 0;
  }
};

// Time interpret() for every engine of one cell on copies of `proto`,
// interleaved in rounds (walker, VM, native, walker, ...) so that all
// engines see the same host state. In each round every engine runs
// for one time slice, at least once, so a fast engine still gets many
// runs to take its minimum from. Rounds go on until the cell has spent
// `budget_s` per engine (min 3 timed runs each, one untimed warmup
// each first — for the native engine the warmup also absorbs the
// one-time C compile). Memory copies stay outside the timer.
std::vector<EngineRun> measure(const Program& p,
                               const std::map<std::string, i64>& params,
                               const Memory& proto,
                               const std::vector<ExecEngine>& engines,
                               double budget_s) {
  constexpr int kRounds = 16;
  const double slice_s = budget_s / kRounds;
  std::vector<InterpOptions> opts(engines.size());
  std::vector<EngineRun> ers(engines.size());
  for (size_t e = 0; e < engines.size(); ++e) {
    opts[e].engine = engines[e];
    Memory warm = proto;
    ers[e].instances = interpret(p, params, warm, opts[e]).instances;
  }
  auto done = [&] {
    for (const EngineRun& er : ers)
      if (er.seconds < budget_s || er.runs < 3) return false;
    return true;
  };
  while (!done()) {
    for (size_t e = 0; e < engines.size(); ++e) {
      EngineRun& er = ers[e];
      double in_slice = 0;
      do {
        Memory mem = proto;
        double t0 = now_s();
        interpret(p, params, mem, opts[e]);
        double dt = now_s() - t0;
        er.seconds += dt;
        er.best = er.runs == 0 ? dt : std::min(er.best, dt);
        er.runs += 1;
        in_slice += dt;
      } while (in_slice < slice_s);
    }
  }
  return ers;
}

bool bit_identical(const Memory& a, const Memory& b) {
  if (a.arrays().size() != b.arrays().size()) return false;
  for (const auto& [name, arr] : a.arrays()) {
    if (!b.has(name)) return false;
    const DenseArray& other = b.at(name);
    if (arr.data().size() != other.data().size()) return false;
    if (std::memcmp(arr.data().data(), other.data().data(),
                    arr.data().size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

void emit_engine(std::ostream& os, const char* name, const EngineRun& er) {
  os << "\"" << name << "\":{"
     << "\"seconds\":" << er.seconds << ",\"best_seconds\":" << er.best
     << ",\"runs\":" << er.runs
     << ",\"instances\":" << er.instances
     << ",\"instances_per_second\":" << er.ips() << "}";
}

}  // namespace

int main(int argc, char** argv) {
  double budget_s = 0.25;
  std::string out_path = "BENCH_interp.json";
  std::string native_out_path = "BENCH_native.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--native-out=", 0) == 0) {
      native_out_path = arg.substr(13);
    } else if (arg.rfind("--benchmark_min_time=", 0) == 0) {
      double v = std::atof(arg.c_str() + std::strlen("--benchmark_min_time="));
      if (v > 0) budget_s = arg.back() == 'x' ? std::min(0.25, 0.05 * v) : v;
    }
    // Other --benchmark_* flags: accepted, ignored.
  }

  std::string native_why;
  const bool have_native = native_available(&native_why);
  if (!have_native)
    std::printf("native engine unavailable (%s); VM/walker columns only\n",
                native_why.c_str());

  const std::vector<Kernel> kernels = {
      {"cholesky", &gallery::cholesky},
      {"lu", &gallery::lu},
      {"stencil", &stencil},
      {"skewed_wavefront", &skewed_wavefront},
  };
  const std::vector<i64> sizes = {16, 32, 64, 96};

  bool all_bit_identical = true;
  double log_ratio_sum = 0;  // geomean accumulator at the largest size
  int log_ratio_count = 0;

  std::ostringstream js;
  std::ostringstream njs;
  js << "{\"benchmark\":\"bench_interp\",\"kernels\":[";
  njs << "{\"benchmark\":\"bench_native\",\"unavailable\":"
      << (have_native ? "false" : "true") << ",\"compiler\":\""
      << (have_native ? native_compiler() : std::string()) << "\",\"kernels\":[";
  for (size_t k = 0; k < kernels.size(); ++k) {
    Program p = kernels[k].make();
    if (k) {
      js << ",";
      njs << ",";
    }
    js << "{\"name\":\"" << kernels[k].name << "\",\"sizes\":[";
    njs << "{\"name\":\"" << kernels[k].name << "\",\"sizes\":[";
    double largest_speedup = 0;
    double largest_native_vs_vm = 0;
    for (size_t s = 0; s < sizes.size(); ++s) {
      std::map<std::string, i64> params{{"N", sizes[s]}};
      Memory proto;
      declare_arrays(p, params, proto);
      fill_spd(proto, 3);

      std::vector<ExecEngine> engines = {ExecEngine::kAstWalker,
                                         ExecEngine::kVm};
      if (have_native) engines.push_back(ExecEngine::kNative);
      std::vector<EngineRun> runs =
          measure(p, params, proto, engines, budget_s);
      const EngineRun& walker = runs[0];
      const EngineRun& vm = runs[1];
      double speedup = walker.ips() > 0 ? vm.ips() / walker.ips() : 0;
      largest_speedup = speedup;  // sizes ascend; last one wins

      EngineRun native;
      double native_vs_vm = 0;
      bool identical = true;
      if (have_native) {
        native = runs[2];
        native_vs_vm = vm.ips() > 0 ? native.ips() / vm.ips() : 0;
        largest_native_vs_vm = native_vs_vm;
        Memory vm_mem = proto;
        Memory native_mem = proto;
        InterpOptions vopts;
        vopts.engine = ExecEngine::kVm;
        interpret(p, params, vm_mem, vopts);
        InterpOptions nopts;
        nopts.engine = ExecEngine::kNative;
        interpret(p, params, native_mem, nopts);
        identical = bit_identical(vm_mem, native_mem);
        all_bit_identical = all_bit_identical && identical;
      }

      if (have_native)
        std::printf("%-18s N=%3lld %10lld inst | walker %11.0f i/s | "
                    "vm %11.0f i/s (%5.2fx) | native %11.0f i/s (%5.2fx vm)%s\n",
                    kernels[k].name.c_str(), static_cast<long long>(sizes[s]),
                    static_cast<long long>(vm.instances), walker.ips(),
                    vm.ips(), speedup, native.ips(), native_vs_vm,
                    identical ? "" : "  BIT MISMATCH");
      else
        std::printf("%-18s N=%3lld %10lld inst | walker %12.0f inst/s | "
                    "vm %12.0f inst/s | %6.2fx\n",
                    kernels[k].name.c_str(), static_cast<long long>(sizes[s]),
                    static_cast<long long>(vm.instances), walker.ips(),
                    vm.ips(), speedup);

      if (s) {
        js << ",";
        njs << ",";
      }
      js << "{\"n\":" << sizes[s] << ",";
      emit_engine(js, "walker", walker);
      js << ",";
      emit_engine(js, "vm", vm);
      if (have_native) {
        js << ",";
        emit_engine(js, "native", native);
      }
      js << ",\"speedup\":" << speedup << "}";
      njs << "{\"n\":" << sizes[s] << ",";
      emit_engine(njs, "native", native);
      njs << ",\"native_vs_vm\":" << native_vs_vm
          << ",\"bit_identical\":" << (identical ? "true" : "false") << "}";
    }
    js << "],\"speedup_at_largest\":" << largest_speedup << "}";
    njs << "],\"native_vs_vm_at_largest\":" << largest_native_vs_vm << "}";
    if (have_native && largest_native_vs_vm > 0) {
      log_ratio_sum += std::log(largest_native_vs_vm);
      ++log_ratio_count;
    }
  }
  js << "]}\n";

  // Second pass: drop the in-process handle cache and run every kernel
  // once more at the largest size. Every kernel must come back from the
  // on-disk cache — zero recompiles — or the content-addressed cache is
  // broken.
  i64 recompiles_second_run = 0;
  if (have_native) {
    native_lru_clear();
    StatsSnapshot s0 = Stats::global().snapshot();
    for (const Kernel& kern : kernels) {
      Program p = kern.make();
      std::map<std::string, i64> params{{"N", sizes.back()}};
      Memory mem;
      declare_arrays(p, params, mem);
      fill_spd(mem, 3);
      InterpOptions opts;
      opts.engine = ExecEngine::kNative;
      interpret(p, params, mem, opts);
    }
    StatsSnapshot d = Stats::global().snapshot() - s0;
    recompiles_second_run = d.counter("exec.native.compiles");
  }
  const double geomean =
      log_ratio_count > 0 ? std::exp(log_ratio_sum / log_ratio_count) : 0;
  njs << "],\"bit_identical\":" << (all_bit_identical ? "true" : "false")
      << ",\"recompiles_second_run\":" << recompiles_second_run
      << ",\"geomean_native_vs_vm_at_largest\":" << geomean << "}\n";

  std::ofstream out(out_path);
  out << js.str();
  std::printf("wrote %s\n", out_path.c_str());
  std::ofstream nout(native_out_path);
  nout << njs.str();
  if (have_native)
    std::printf(
        "wrote %s (bit_identical=%s, recompiles_second_run=%lld, "
        "geomean native/vm at N=%lld: %.2fx)\n",
        native_out_path.c_str(), all_bit_identical ? "true" : "false",
        static_cast<long long>(recompiles_second_run),
        static_cast<long long>(sizes.back()), geomean);
  else
    std::printf("wrote %s (native unavailable)\n", native_out_path.c_str());
  return all_bit_identical ? 0 : 1;
}
