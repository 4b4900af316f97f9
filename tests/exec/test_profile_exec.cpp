// The execution profiler against the partitioned parallel engine:
// enabling it must not change results (Memory bit-identical,
// InterpStats equal — the disabled path is one relaxed atomic check
// per chunk), reports must be structurally deterministic across runs
// and thread counts, barrier aborts must still propagate cleanly while
// profiling, spans/counters recorded on the persistent WorkerPool
// threads must reach the Tracer export.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "codegen/generate.hpp"
#include "dependence/analyzer.hpp"
#include "exec/interp.hpp"
#include "exec/parallel.hpp"
#include "exec/vm.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "support/check.hpp"
#include "support/profile.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"
#include "transform/parallel.hpp"
#include "transform/transforms.hpp"

namespace inlt {
namespace {

// Profiler and tracer are process-global; every test starts and ends
// with both off and empty.
class ProfileExec : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
  static void reset() {
    ExecProfiler::global().disable();
    ExecProfiler::global().clear();
    Tracer::global().disable();
    Tracer::global().clear();
  }
};

void expect_bit_identical(const Memory& a, const Memory& b,
                          const std::string& what) {
  ASSERT_EQ(a.arrays().size(), b.arrays().size()) << what;
  for (const auto& [name, arr] : a.arrays()) {
    const DenseArray& other = b.at(name);
    ASSERT_EQ(arr.data().size(), other.data().size()) << what << " " << name;
    EXPECT_EQ(std::memcmp(arr.data().data(), other.data().data(),
                          arr.data().size() * sizeof(double)),
              0)
        << what << ": array " << name << " differs";
  }
}

struct Kernel {
  std::string name;
  Program program;
  std::vector<std::string> partition;
};

// The §5.5 skewed stencil: sequential diagonal loop over a chunked
// inner doall — the schedule that runs the per-activation barriers
// (and hence the chunk-timing state machine) hardest.
Kernel skewed_wavefront() {
  Program p = parse_program(R"(
param N
do I = 1, N
  do J = 1, N
    S1: U(I, J) = U(I - 1, J) + U(I, J - 1)
  end
end
)");
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  IntMat m = loop_skew(layout, "I", "J", 1);
  CodegenResult gen = generate_code(layout, deps, m);
  AstRecovery rec = recover_ast(layout, m);
  ParallelSchedule s = analyze_target_parallelism(layout, deps, m, rec);
  return {"stencil_wavefront", gen.program, s.partition};
}

std::vector<Kernel> kernels() {
  std::vector<Kernel> out;
  for (auto [name, p] :
       {std::pair<const char*, Program>{"cholesky", gallery::cholesky()},
        {"lu", gallery::lu()}}) {
    IvLayout layout(p);
    DependenceSet deps = analyze_dependences(layout);
    ParallelSchedule s = source_parallel_schedule(layout, deps);
    out.push_back({name, p, s.partition});
  }
  out.push_back(skewed_wavefront());
  return out;
}

InterpStats run_parallel(const Kernel& k,
                         const std::map<std::string, i64>& params,
                         const Memory& proto, Memory& out, int threads) {
  out = proto;
  InterpOptions opts;
  opts.num_threads = threads;
  opts.partition = k.partition;
  return interpret(k.program, params, out, opts);
}

// The acceptance test for the overhead contract's other half: turning
// the profiler on changes what is *recorded*, never what is *computed*.
TEST_F(ProfileExec, EnablingProfilerChangesNoResultOrStat) {
  std::map<std::string, i64> params{{"N", 17}};
  for (const Kernel& k : kernels()) {
    Memory proto;
    declare_arrays(k.program, params, proto);
    fill_spd(proto, 2);

    Memory off_mem;
    InterpStats off = run_parallel(k, params, proto, off_mem, 4);
    ASSERT_EQ(ExecProfiler::global().report_count(), 0u) << k.name;

    ExecProfiler::global().enable();
    Memory on_mem;
    InterpStats on = run_parallel(k, params, proto, on_mem, 4);
    ExecProfiler::global().disable();

    EXPECT_EQ(on.instances, off.instances) << k.name;
    EXPECT_EQ(on.loop_iterations, off.loop_iterations) << k.name;
    EXPECT_EQ(on.guard_failures, off.guard_failures) << k.name;
    expect_bit_identical(on_mem, off_mem, k.name + " profiler on vs off");
    EXPECT_EQ(ExecProfiler::global().report_count(), 1u) << k.name;
    ExecProfiler::global().clear();
  }
}

TEST_F(ProfileExec, WavefrontReportShape) {
  Kernel k = skewed_wavefront();
  ASSERT_EQ(k.partition, (std::vector<std::string>{"J"}));
  std::map<std::string, i64> params{{"N", 17}};
  Memory proto;
  declare_arrays(k.program, params, proto);
  fill_spd(proto, 1);

  Memory serial_mem = proto;
  InterpStats serial = interpret(k.program, params, serial_mem, {});

  ExecProfiler::global().enable();
  Memory mem;
  run_parallel(k, params, proto, mem, 4);
  ExecProfiler::global().disable();

  ASSERT_EQ(ExecProfiler::global().report_count(), 1u);
  ProfileReport rep = ExecProfiler::global().merged();
  EXPECT_EQ(rep.workers, 4);
  EXPECT_EQ(rep.runs, 1);
  EXPECT_GT(rep.wall_ns, 0);
  ASSERT_EQ(rep.per_worker.size(), 4u);
  ASSERT_EQ(rep.levels.size(), 1u);
  EXPECT_EQ(rep.levels[0].var, "J");
  EXPECT_GT(rep.levels[0].activations, 0);
  EXPECT_GT(rep.levels[0].chunks, 0);

  i64 instances = 0, chunks = 0;
  for (const WorkerProfile& w : rep.per_worker) {
    // Every non-zero-trip activation gives each worker either a chunk
    // or an empty chunk — no activations go unaccounted.
    EXPECT_EQ(w.chunks + w.empty_chunks, rep.levels[0].activations)
        << "worker " << w.worker;
    instances += w.instances;
    chunks += w.chunks;
  }
  EXPECT_EQ(instances, serial.instances);
  EXPECT_EQ(chunks, rep.levels[0].chunks);
  EXPECT_GE(rep.total_busy_ns(), 0);
  EXPECT_GE(rep.measured_parallel_fraction(), 0.0);
  EXPECT_LE(rep.measured_parallel_fraction(), 1.0);
}

TEST_F(ProfileExec, ReportCountsDeterministicAcrossRepeatedRuns) {
  Kernel k = skewed_wavefront();
  std::map<std::string, i64> params{{"N", 13}};
  Memory proto;
  declare_arrays(k.program, params, proto);
  fill_spd(proto, 3);

  ExecProfiler::global().enable();
  for (int run = 0; run < 3; ++run) {
    Memory mem;
    run_parallel(k, params, proto, mem, 4);
  }
  ExecProfiler::global().disable();

  std::vector<ProfileReport> reps = ExecProfiler::global().reports();
  ASSERT_EQ(reps.size(), 3u);
  const ProfileReport& first = reps[0];
  for (size_t r = 1; r < reps.size(); ++r) {
    const ProfileReport& rep = reps[r];
    ASSERT_EQ(rep.per_worker.size(), first.per_worker.size()) << "run " << r;
    for (size_t w = 0; w < rep.per_worker.size(); ++w) {
      // Chunk assignment is static, so every count is identical run to
      // run; only the timing fields may differ.
      EXPECT_EQ(rep.per_worker[w].chunks, first.per_worker[w].chunks)
          << "run " << r << " worker " << w;
      EXPECT_EQ(rep.per_worker[w].empty_chunks,
                first.per_worker[w].empty_chunks)
          << "run " << r << " worker " << w;
      EXPECT_EQ(rep.per_worker[w].instances, first.per_worker[w].instances)
          << "run " << r << " worker " << w;
      EXPECT_EQ(rep.per_worker[w].loop_iterations,
                first.per_worker[w].loop_iterations)
          << "run " << r << " worker " << w;
    }
    ASSERT_EQ(rep.levels.size(), first.levels.size()) << "run " << r;
    for (size_t l = 0; l < rep.levels.size(); ++l) {
      EXPECT_EQ(rep.levels[l].activations, first.levels[l].activations);
      EXPECT_EQ(rep.levels[l].chunks, first.levels[l].chunks);
    }
  }
}

TEST_F(ProfileExec, InvariantsHoldAcrossThreadCounts) {
  Kernel k = skewed_wavefront();
  std::map<std::string, i64> params{{"N", 13}};
  Memory proto;
  declare_arrays(k.program, params, proto);
  fill_spd(proto, 3);
  Memory serial_mem = proto;
  InterpStats serial = interpret(k.program, params, serial_mem, {});

  for (int threads : {2, 3, 8}) {
    ExecProfiler::global().clear();
    ExecProfiler::global().enable();
    Memory mem;
    run_parallel(k, params, proto, mem, threads);
    ExecProfiler::global().disable();

    ASSERT_EQ(ExecProfiler::global().report_count(), 1u);
    ProfileReport rep = ExecProfiler::global().merged();
    EXPECT_EQ(rep.workers, threads);
    ASSERT_EQ(rep.per_worker.size(), static_cast<size_t>(threads));
    i64 instances = 0;
    for (const WorkerProfile& w : rep.per_worker) instances += w.instances;
    // Work is conserved at any width; the team-level activation count
    // is a property of the schedule, not of the worker count.
    EXPECT_EQ(instances, serial.instances) << threads << " threads";
    ASSERT_EQ(rep.levels.size(), 1u);
    EXPECT_GT(rep.levels[0].activations, 0) << threads << " threads";
    expect_bit_identical(mem, serial_mem,
                         "profiled at " + std::to_string(threads));
  }
}

TEST_F(ProfileExec, BarrierAbortPropagatesWhileProfiling) {
  // Shrunken array: a worker faults mid-chunk, poisons the barrier,
  // and the original error must surface — with the profiler enabled
  // and its chunk-timing state machine mid-flight.
  Program p = parse_program(R"(
param N
do T = 1, 3
  do I = 1, N
    S1: A(I) = A(I) + 1.0
  end
end
)");
  std::map<std::string, i64> params{{"N", 64}};
  Memory mem;
  mem.declare("A", {1}, {32});  // program writes A(1..64)
  ExecProfiler::global().enable();
  try {
    run_partitioned(p, params, mem, {"I"}, 4, InterpOptions{});
    FAIL() << "expected an out-of-bounds error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("out of bounds"), std::string::npos)
        << e.what();
    EXPECT_EQ(std::string(e.what()).find(ExecBarrier::aborted_message()),
              std::string::npos)
        << "abort echo leaked instead of the original error: " << e.what();
  }

  // The pool and profiler must both be healthy afterwards: a correct
  // profiled run on the same pool still works and reports.
  ExecProfiler::global().clear();
  Kernel k = skewed_wavefront();
  std::map<std::string, i64> good{{"N", 9}};
  Memory proto;
  declare_arrays(k.program, good, proto);
  fill_spd(proto, 1);
  Memory serial_mem = proto;
  interpret(k.program, good, serial_mem, {});
  Memory par_mem;
  run_parallel(k, good, proto, par_mem, 4);
  expect_bit_identical(par_mem, serial_mem, "after abort");
  EXPECT_EQ(ExecProfiler::global().report_count(), 1u);
}

TEST_F(ProfileExec, PoolWorkerTraceEventsReachTheExport) {
  // The WorkerPool outlives the run; spans and counters its threads
  // record must still be collected at export time (the Tracer holds
  // shared ownership of every thread's buffer).
  Kernel k = skewed_wavefront();
  std::map<std::string, i64> params{{"N", 9}};
  Memory proto;
  declare_arrays(k.program, params, proto);
  fill_spd(proto, 1);

  Tracer::global().enable();
  Memory mem;
  run_parallel(k, params, proto, mem, 4);
  Tracer::global().disable();

  int chunk_spans = 0;
  int active_samples = 0;
  int done_samples = 0;
  for (const TraceEvent& e : Tracer::global().events()) {
    if (e.ph == 'X' && std::string(e.name) == "chunk") {
      ++chunk_spans;
      EXPECT_STREQ(e.cat, "exec.worker");
    } else if (e.ph == 'C' && std::string(e.name) == "active workers") {
      ++active_samples;
    } else if (e.ph == 'C' && std::string(e.name) == "chunks done") {
      ++done_samples;
    }
  }
  EXPECT_GT(chunk_spans, 0) << "no worker chunk spans were exported";
  EXPECT_GT(active_samples, 0);
  EXPECT_GT(done_samples, 0);
  // Every chunk increments the done counter exactly once.
  EXPECT_EQ(done_samples, chunk_spans);

  std::string json = Tracer::global().chrome_trace_json();
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("exec worker"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
}

}  // namespace
}  // namespace inlt
