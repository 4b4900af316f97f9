// The shared steps of the paper-claim benches (C2, C3, C4, C8 and the
// LU orders): every series times a program the framework generated,
// run through the native engine, against the same program's source.
//
//  * Build: complete_order() completes a loop order of a gallery nest
//    (§6) and skewed() applies a loop skew; both emit the simplified
//    code the CLI prints.
//  * Verify: once per problem size, untimed, the generated program
//    must leave memory bit-identical to its source on the native
//    engine. A mismatch aborts the process before that series is
//    timed — a timing of a wrong program is worse than no number.
//  * Prepare: native_prepare runs once per program; when it cannot
//    (no compiler, no dlopen) the series reports the Stage::kExec
//    reason through SkipWithError instead of timing the VM.
//  * Time: only native_run, on a fresh copy of the filled input.
//
// Orders the framework cannot express are not registered; they are
// listed in the benchmark context as "inexpressible <order>".
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "codegen/generate.hpp"
#include "codegen/simplify.hpp"
#include "exec/native.hpp"
#include "transform/completion.hpp"
#include "transform/transforms.hpp"

namespace inlt::bench {

// Statement-instance budget: LU at N=1024 runs about N³/3 ≈ 3.6e8.
constexpr i64 kMaxInstances = i64{1} << 34;

/// The simplified code generated for skewing loop `target` of `source`
/// by `factor` times loop `by`.
inline Program skewed(const Program& source, const std::string& target,
                      const std::string& by, i64 factor) {
  IvLayout layout(source);
  DependenceSet deps = analyze_dependences(layout);
  IntMat m = loop_skew(layout, target, by, factor);
  return simplify_program(generate_code(layout, deps, m).program);
}

/// Complete the loop order `order` (one loop variable per character,
/// outermost first, e.g. "KJL") into a legal transformation of
/// `source` and generate its code. Null, with `why` set, when the
/// framework cannot express the order.
inline std::optional<Program> complete_order(const Program& source,
                                             const std::string& order,
                                             std::string* why) {
  IvLayout layout(source);
  DependenceSet deps = analyze_dependences(layout);
  std::vector<IntVec> rows;
  for (char c : order) {
    IntVec r(static_cast<size_t>(layout.size()), 0);
    r[static_cast<size_t>(layout.loop_position(std::string(1, c)))] = 1;
    rows.push_back(std::move(r));
  }
  try {
    CompletionResult res = complete_transformation(layout, deps, rows);
    return simplify_program(generate_code(layout, deps, res.matrix).program);
  } catch (const TransformError& e) {
    *why = e.what();
    return std::nullopt;
  }
}

/// A program prepared once for the native engine.
struct Prepared {
  explicit Prepared(Program p) : program(std::move(p)) {}
  Program program;
  std::shared_ptr<NativeKernel> kernel;
  Diagnostic why;  // set when the kernel could not be prepared
  bool tried = false;

  const NativeKernel* get() {
    if (!tried) {
      tried = true;
      kernel = native_prepare(program, &why);
    }
    return kernel.get();
  }
};

inline InterpOptions native_options() {
  InterpOptions opts;
  opts.engine = ExecEngine::kNative;
  opts.max_instances = kMaxInstances;
  return opts;
}

/// The source of a family of series: its filled inputs and its final
/// memory per problem size, computed once on the native engine.
class Source {
 public:
  explicit Source(Program p) : prepared_(std::move(p)) {}

  Prepared& prepared() { return prepared_; }

  struct Sized {
    Memory input;   // filled, before the run
    Memory output;  // after the source ran on `input`
    i64 instances = 0;
  };

  /// Requires prepared().get() to be non-null.
  const Sized& at(i64 n) {
    auto it = sized_.find(n);
    if (it != sized_.end()) return it->second;
    Sized s;
    const std::map<std::string, i64> params{{"N", n}};
    declare_arrays(prepared_.program, params, s.input);
    fill_spd(s.input, 1);
    s.output = s.input;
    s.instances =
        native_run(*prepared_.get(), params, s.output, native_options())
            .instances;
    return sized_.emplace(n, std::move(s)).first->second;
  }

 private:
  Prepared prepared_;
  std::map<i64, Sized> sized_;
};

/// One timed series: a generated program of `source`, labelled by the
/// order or transformation that produced it.
class Series {
 public:
  Series(std::string name, std::shared_ptr<Source> source,
         std::string label, Program program)
      : name_(std::move(name)),
        source_(std::move(source)),
        label_(std::move(label)),
        prepared_(std::move(program)) {}

  void run(benchmark::State& state) {
    const i64 n = state.range(0);
    const NativeKernel* src = source_->prepared().get();
    const NativeKernel* kernel = prepared_.get();
    if (!src || !kernel) {
      const Diagnostic& why = src ? prepared_.why : source_->prepared().why;
      state.SkipWithError(("not timed: " + why.render()).c_str());
      return;
    }
    const Source::Sized& sized = source_->at(n);
    Memory mem = sized.input;
    check(n, *kernel, sized, mem);
    const std::map<std::string, i64> params{{"N", n}};
    const InterpOptions opts = native_options();
    for (auto _ : state) {
      state.PauseTiming();
      mem = sized.input;
      state.ResumeTiming();
      benchmark::DoNotOptimize(native_run(*kernel, params, mem, opts));
      benchmark::ClobberMemory();
    }
    state.SetLabel(label_);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            sized.instances);
  }

 private:
  // Once per size: the generated program, run on `mem` (a copy of the
  // input), must reproduce the source's final memory bit for bit, else
  // abort before timing.
  void check(i64 n, const NativeKernel& kernel, const Source::Sized& sized,
             Memory& mem) {
    if (checked_.count(n)) return;
    const i64 instances =
        native_run(kernel, {{"N", n}}, mem, native_options()).instances;
    if (instances != sized.instances || !mem.identical(sized.output)) {
      std::fprintf(stderr,
                   "%s at N=%lld is NOT bit-identical to its source on "
                   "the native engine\n",
                   name_.c_str(), static_cast<long long>(n));
      std::abort();
    }
    checked_.insert(n);
  }

  std::string name_;
  std::shared_ptr<Source> source_;
  std::string label_;
  Prepared prepared_;
  std::set<i64> checked_;  // sizes already verified
};

/// Register `name/<label>` timing `program` at each size in `sizes`.
inline void add_series(const std::string& name,
                       const std::shared_ptr<Source>& source,
                       const std::string& label, Program program,
                       const std::vector<i64>& sizes) {
  auto series = std::make_shared<Series>(name + "/" + label, source, label,
                                         std::move(program));
  auto* b = benchmark::RegisterBenchmark(
      (name + "/" + label).c_str(),
      [series](benchmark::State& state) { series->run(state); });
  for (i64 n : sizes) b->Arg(n);
  b->Unit(benchmark::kMicrosecond);
}

/// Register one series per loop order of `source`; orders the
/// framework cannot express go into the benchmark context instead.
inline void add_orders(const std::string& name, const Program& source,
                       const std::vector<std::string>& orders,
                       const std::vector<i64>& sizes) {
  auto src = std::make_shared<Source>(source);
  for (const std::string& order : orders) {
    std::string why;
    std::optional<Program> p = complete_order(source, order, &why);
    if (p)
      add_series(name, src, order, std::move(*p), sizes);
    else
      benchmark::AddCustomContext("inexpressible " + order, why);
  }
}

/// The benches' main(): flags, then the registered series.
inline int run_main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace inlt::bench
