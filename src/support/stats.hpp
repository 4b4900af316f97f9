// Lightweight pipeline instrumentation: named counters and histograms.
//
// The hot paths of the framework (Fourier–Motzkin elimination, the
// Omega test, legality checks, the session projection cache) bump
// counters here. One global registry serves the whole process —
// increments are relaxed atomics, so instrumented code stays
// thread-safe and cheap — and the whole registry can be dumped as
// aligned text or JSON (`inltc --stats`). Stats holds counts and
// sizes only: stage wall time is a ScopedSpan (support/trace.hpp).
//
// Counter references returned by `counter()` are stable for the life
// of the process; `reset()` zeroes values without invalidating them,
// so call sites may cache the reference in a function-local static.
#pragma once

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "support/checked_int.hpp"

namespace inlt {

/// Number of log₂ buckets in a histogram: bucket 0 holds values <= 0,
/// bucket b >= 1 holds values in [2^(b-1), 2^b - 1].
inline constexpr int kHistBuckets = 64;

/// Index of the bucket `value` falls into.
int hist_bucket(i64 value);

/// Smallest value of bucket `b` (0 for bucket 0).
i64 hist_bucket_lo(int b);

/// A log₂-bucketed histogram cell: sample counts per power-of-two
/// bucket plus exact count/sum for means. Returned by reference from
/// `Stats::histogram()` so hot paths can cache it and record with
/// relaxed atomics only.
class HistogramCell {
 public:
  void record(i64 value) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    buckets_[hist_bucket(value)].fetch_add(1, std::memory_order_relaxed);
  }

  i64 count() const { return count_.load(std::memory_order_relaxed); }
  i64 sum() const { return sum_.load(std::memory_order_relaxed); }
  i64 bucket(int b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  void reset() {
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<i64> count_{0};
  std::atomic<i64> sum_{0};
  std::array<std::atomic<i64>, kHistBuckets> buckets_{};
};

/// Point-in-time copy of every counter and histogram.
/// Subtracting two snapshots gives the deltas accumulated between
/// them — how the benchmarks attribute global counters to one
/// measured phase.
struct StatsSnapshot {
  struct HistogramValue {
    i64 count = 0;
    i64 sum = 0;
    std::array<i64, kHistBuckets> buckets{};

    double mean() const {
      return count ? static_cast<double>(sum) / static_cast<double>(count)
                   : 0.0;
    }
  };
  std::map<std::string, i64> counters;
  std::map<std::string, HistogramValue> histograms;

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

  /// Named log₂-bucketed histogram; created zeroed on first use. The
  /// reference stays valid forever (cache it on hot paths).
  HistogramCell& histogram(const std::string& name);

  /// histogram(name).record(value).
  void add_sample(const std::string& name, i64 value);

  /// Zero every counter and histogram (references stay valid).
  void reset();

  /// Copy every current counter and histogram value.
  StatsSnapshot snapshot() const;

  /// Aligned "name  value" lines: counters first, then histograms
  /// (count/mean plus the non-empty log₂ buckets). Zero entries
  /// included.
  std::string to_text() const;

  /// {"counters":{...},
  ///  "histograms":{name:{"count":..,"sum":..,"buckets":{lo:n,...}}}}.
  std::string to_json() const;

  Stats() = default;
  Stats(const Stats&) = delete;
  Stats& operator=(const Stats&) = delete;

 private:
  // unique_ptr keeps addresses stable across map growth.
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<std::atomic<i64>>> counters_;
  std::map<std::string, std::unique_ptr<HistogramCell>> histograms_;
};

}  // namespace inlt
