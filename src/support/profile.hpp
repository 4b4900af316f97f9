// inlt runtime execution profiler — per-worker timelines for the
// partitioned parallel engine.
//
// The parallel driver (exec/parallel.hpp) proves a run is *correct*
// (bit-identical to serial); this module answers why it is fast or
// slow. When profiling is enabled, every worker of a partitioned run
// records, per chunked activation of a marked doall loop:
//
//   * the time spent waiting at the entry and exit ExecBarriers,
//   * the time spent executing its own chunk (per partitioned level),
//   * empty-chunk activations (more workers than iterations),
//
// and the driver aggregates the records — together with the per-worker
// InterpStats it already collects — into one ProfileReport per
// partitioned run: per-worker utilization, load-imbalance ratio,
// barrier-wait share, worker-0 serial-section time, and the *measured*
// parallel fraction that the static cost model
// (model/cost.hpp, CostEstimate::parallel_fraction) only predicts.
//
// Overhead contract: profiling is disabled by default. The parallel
// driver samples `ExecProfiler::enabled()` once per run to decide
// whether workers carry a profile sink at all; a worker whose sink is
// null pays one relaxed atomic load per chunked activation (the
// tracing gate it shares with the span exporter) and nothing else — no
// clock reads, no allocation. Enabling the profiler must not change
// execution results: Memory stays bit-identical and InterpStats equal
// (tests/exec/test_profile_exec.cpp enforces both).
#pragma once

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "support/checked_int.hpp"

namespace inlt {

/// Per-(worker, partitioned-level) tally, indexed by the level number
/// VmProgram::mark_partition assigns (nest order, aligned with
/// ProfileReport::levels).
struct LevelTally {
  i64 activations = 0;  ///< chunked activations seen (incl. empty chunks)
  i64 chunks = 0;       ///< non-empty chunks executed
  i64 busy_ns = 0;      ///< time inside those chunks
};

/// What one worker of one partitioned run did with its time.
struct WorkerProfile {
  int worker = -1;
  i64 busy_ns = 0;          ///< executing its own chunks
  i64 barrier_wait_ns = 0;  ///< waiting at entry + exit barriers
  i64 chunks = 0;           ///< non-empty chunk activations executed
  i64 empty_chunks = 0;     ///< activations with no iterations for us
  // Mirror of the worker's InterpStats (filled by the driver).
  i64 instances = 0;
  i64 loop_iterations = 0;
  /// Per-partitioned-level tallies (aligned with ProfileReport::levels).
  std::vector<LevelTally> levels;
};

/// One partitioned doall level of the report, aggregated over workers.
struct LevelProfile {
  std::string var;      ///< loop variable of the partitioned level
  i64 activations = 0;  ///< times the team executed this level
  i64 chunks = 0;       ///< non-empty chunks, summed over workers
  i64 busy_ns = 0;      ///< chunk time, summed over workers
  i64 max_worker_busy_ns = 0;  ///< busiest worker's share of busy_ns
};

/// Everything measured about one partitioned run (or, via
/// ExecProfiler::merged(), the sum of several runs of the same width).
struct ProfileReport {
  int workers = 0;
  i64 runs = 1;      ///< partitioned runs folded into this report
  i64 wall_ns = 0;   ///< driver wall time, dispatch to last return
  std::vector<WorkerProfile> per_worker;
  std::vector<LevelProfile> levels;  ///< partitioned levels, nest order

  /// Model comparison, filled by the caller when a prediction exists
  /// (model/cost.hpp): < 0 means "no prediction attached".
  double predicted_parallel_fraction = -1.0;
  double predicted_speedup = 0.0;  ///< Amdahl at `workers` (0 = none)

  // -- derived metrics --
  /// Chunk-execution time summed over workers (the parallel work).
  i64 total_busy_ns() const;
  /// Barrier-wait time summed over workers.
  i64 total_wait_ns() const;
  /// Worker 0's time outside chunks and barriers: the serial sections
  /// (plus dispatch overhead, which rides with them).
  i64 serial_ns() const;
  /// busy / wall for one worker (0 when wall is unknown).
  double utilization(int worker) const;
  /// Mean of utilization over all workers.
  double avg_utilization() const;
  /// max(busy) / mean(busy) over workers; 1 is perfectly balanced,
  /// `workers` means one worker did everything. 0 when no chunk ran.
  double load_imbalance() const;
  /// Aggregate share of worker time spent waiting at barriers.
  double barrier_share() const;
  /// Parallel work / (parallel work + serial work) — the measured
  /// counterpart of CostEstimate::parallel_fraction.
  double measured_parallel_fraction() const;

  /// Human-readable report (deterministic layout; the timing values
  /// themselves vary run to run).
  std::string to_text() const;
  /// Machine-readable form, one object per report.
  std::string to_json() const;
};

/// Process-wide collector for partitioned-run profiles. Mirrors the
/// Tracer's gate design: `enabled()` is one relaxed atomic load, and
/// everything else only runs when a caller opted in.
class ExecProfiler {
 public:
  static ExecProfiler& global();

  void enable();
  void disable();

  /// The hot-path gate: one relaxed atomic load.
  static bool enabled() {
    return g_enabled_.load(std::memory_order_relaxed);
  }

  /// Drop every collected report.
  void clear();

  /// Append one run's report (thread-safe; called by the driver).
  void add_report(ProfileReport r);

  size_t report_count() const;
  std::vector<ProfileReport> reports() const;

  /// Sum of every collected report: wall times and per-worker tallies
  /// add up (workers matched by index, levels by variable name); the
  /// width is the maximum seen. Returns a default report when empty.
  ProfileReport merged() const;

  ExecProfiler(const ExecProfiler&) = delete;
  ExecProfiler& operator=(const ExecProfiler&) = delete;

 private:
  ExecProfiler() = default;

  inline static std::atomic<bool> g_enabled_{false};
  mutable std::mutex mu_;
  std::vector<ProfileReport> reports_;
};

}  // namespace inlt
