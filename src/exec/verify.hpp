// End-to-end semantic verification of transformations.
//
// A transformed program is equivalent to its source when, run against
// identical initial memory, it executes the same number of statement
// instances and leaves every array bit-identical. A legal
// transformation never reassociates — each instance evaluates the same
// expression on the same operand values — so any difference, however
// small, is a bug.
#pragma once

#include "exec/interp.hpp"

namespace inlt {

enum class FillKind {
  kRandom,  ///< independent uniform values
  kSpd,     ///< symmetric diagonally-dominant square matrices
};

/// Parallel-execution plan for verification runs (exec/parallel.hpp).
/// With threads > 1, each side executes with its doall partition
/// chunked over the shared worker pool — bit-identical to serial, so
/// verification verdicts are unchanged, just faster. A side with an
/// empty partition runs serially.
struct ExecPlan {
  int threads = 1;
  std::vector<std::string> source_partition;
  std::vector<std::string> target_partition;
};

struct VerifyResult {
  bool equivalent = false;
  /// Largest absolute element difference, reported for diagnosis only
  /// (NaN when a difference is NaN); `equivalent` compares bits.
  double max_diff = 0.0;
  i64 src_instances = 0;
  i64 dst_instances = 0;
  /// Non-empty when the candidate failed to execute at all (out of
  /// bounds, instance budget, overflow) — only VerifyReference::check
  /// captures errors; verify_equivalence propagates them.
  std::string error;

  std::string to_string() const;
};

/// Run source and transformed programs on identical inputs and compare
/// final memory. Arrays are sized from the source program's accesses.
VerifyResult verify_equivalence(const Program& source,
                                const Program& transformed,
                                const std::map<std::string, i64>& params,
                                FillKind fill = FillKind::kSpd,
                                unsigned seed = 1,
                                ExecEngine engine = ExecEngine::kVm,
                                const ExecPlan& plan = {});

/// The source side of verify_equivalence, computed once: declared and
/// filled initial memory plus the source program's final state. Checks
/// of candidate programs against it are independent and thread-safe
/// (each check runs on its own copy of the initial memory), which is
/// what lets full-mode search verify candidates on worker threads.
class VerifyReference {
 public:
  VerifyReference(const Program& source,
                  const std::map<std::string, i64>& params,
                  FillKind fill = FillKind::kSpd, unsigned seed = 1,
                  ExecEngine engine = ExecEngine::kVm,
                  ExecPlan plan = {});

  /// Verify one candidate. Execution failures (bounds, budget,
  /// overflow) are captured in VerifyResult::error, not thrown — a
  /// wrong candidate must not abort a search over many. The candidate
  /// executes with the plan's target partition.
  VerifyResult check(const Program& transformed) const;

  /// Same, with a per-candidate doall partition overriding the plan's
  /// target partition (search computes one per legal hit).
  VerifyResult check(const Program& transformed,
                     const std::vector<std::string>& partition) const;

  const std::map<std::string, i64>& params() const { return params_; }

 private:
  std::map<std::string, i64> params_;
  ExecEngine engine_;
  ExecPlan plan_;
  Memory initial_;  ///< declared from the source, filled
  Memory final_;    ///< source-final state
  i64 src_instances_ = 0;
};

}  // namespace inlt
