// Lightweight pipeline instrumentation: named counters.
//
// The hot paths of the framework (Fourier–Motzkin elimination, the
// Omega test, legality checks, the session projection cache) bump
// counters here. One global registry serves the whole process —
// increments are relaxed atomics, so instrumented code stays
// thread-safe and cheap — and the whole registry can be dumped as
// aligned text or JSON (`inltc --stats`). Stats holds counts only:
// stage wall time and per-call sizes are ScopedSpan durations and args
// (support/trace.hpp).
//
// Counter references returned by `counter()` are stable for the life
// of the process; `reset()` zeroes values without invalidating them,
// so call sites may cache the reference in a function-local static.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "support/checked_int.hpp"

namespace inlt {

/// Point-in-time copy of every counter.
/// Subtracting two snapshots gives the deltas accumulated between
/// them — how the benchmarks attribute global counters to one
/// measured phase.
struct StatsSnapshot {
  std::map<std::string, i64> counters;

  /// Value of a counter in this snapshot (0 if absent).
  i64 counter(const std::string& name) const;

  /// Per-key difference (this - base); keys absent from `base` count
  /// from zero.
  StatsSnapshot operator-(const StatsSnapshot& base) const;
};

class Stats {
 public:
  /// The process-wide registry.
  static Stats& global();

  /// Named counter; created zeroed on first use. The reference stays
  /// valid (and keeps its identity across reset()) forever.
  std::atomic<i64>& counter(const std::string& name);

  /// counter(name) += delta.
  void add(const std::string& name, i64 delta = 1);

  /// Current value of a counter (0 if never touched).
  i64 value(const std::string& name) const;

  /// Zero every counter (references stay valid).
  void reset();

  /// Copy every current counter value.
  StatsSnapshot snapshot() const;

  /// Aligned "name  value" lines, zero entries included.
  std::string to_text() const;

  /// {"counters":{name:value,...}}.
  std::string to_json() const;

  Stats() = default;
  Stats(const Stats&) = delete;
  Stats& operator=(const Stats&) = delete;

 private:
  // unique_ptr keeps addresses stable across map growth.
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<std::atomic<i64>>> counters_;
};

}  // namespace inlt
