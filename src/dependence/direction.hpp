// Dependence vector entries: exact distances and directions (§3).
//
// An entry is a (possibly unbounded) integer interval — the convex
// hull of the values the instance-vector difference can take at that
// position. Exact distances are singleton intervals; the paper's '+'
// is [1, ∞), '-' is (-∞, -1]. Linear combinations (needed to form
// M·d during legality testing) are interval arithmetic.
#pragma once

#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace inlt {

/// The classical dependence kinds.
enum class DepKind { kFlow, kAnti, kOutput };

std::string dep_kind_name(DepKind k);

class DepEntry {
 public:
  /// Default: the unconstrained entry '*'.
  DepEntry() = default;

  static DepEntry exact(i64 v) { return DepEntry(v, v, false, false); }
  static DepEntry plus() { return DepEntry(1, 0, false, true); }     // [1, ∞)
  static DepEntry star() { return DepEntry(0, 0, true, true); }      // (-∞, ∞)
  static DepEntry non_neg() { return DepEntry(0, 0, false, true); }  // [0, ∞)
  static DepEntry at_least(i64 lo) { return DepEntry(lo, 0, false, true); }
  static DepEntry at_most(i64 hi) { return DepEntry(0, hi, true, false); }
  static DepEntry range(i64 lo, i64 hi);

  bool lo_unbounded() const { return lo_inf_; }
  bool hi_unbounded() const { return hi_inf_; }
  /// Finite lower bound; only meaningful when !lo_unbounded().
  i64 lo() const { return lo_; }
  i64 hi() const { return hi_; }

  bool is_exact() const { return !lo_inf_ && !hi_inf_ && lo_ == hi_; }
  bool is_zero() const { return is_exact() && lo_ == 0; }
  /// Entire interval >= 1?
  bool definitely_positive() const { return !lo_inf_ && lo_ >= 1; }
  /// Entire interval <= -1?
  bool definitely_negative() const { return !hi_inf_ && hi_ <= -1; }
  /// Entire interval >= 0?
  bool definitely_non_negative() const { return !lo_inf_ && lo_ >= 0; }

  DepEntry operator+(const DepEntry& o) const;
  DepEntry operator*(i64 s) const;

  friend bool operator==(const DepEntry&, const DepEntry&) = default;

  /// Arbitrary-but-strict ordering so DepEntry (and DepVector) can key
  /// ordered containers — the analyzer's dedup set. Well-defined
  /// because the representation is canonical: unbounded ends always
  /// store 0.
  friend bool operator<(const DepEntry& a, const DepEntry& b) {
    if (a.lo_inf_ != b.lo_inf_) return a.lo_inf_ < b.lo_inf_;
    if (a.hi_inf_ != b.hi_inf_) return a.hi_inf_ < b.hi_inf_;
    if (a.lo_ != b.lo_) return a.lo_ < b.lo_;
    return a.hi_ < b.hi_;
  }

  /// "3", "+", "-", "*", "0+", "0-", or "[a,b]".
  std::string to_string() const;

 private:
  DepEntry(i64 lo, i64 hi, bool lo_inf, bool hi_inf)
      : lo_(lo), hi_(hi), lo_inf_(lo_inf), hi_inf_(hi_inf) {}

  i64 lo_ = 0;
  i64 hi_ = 0;
  bool lo_inf_ = true;
  bool hi_inf_ = true;
};

using DepVector = std::vector<DepEntry>;

/// Lexicographic status of a (projected) dependence vector whose
/// entries are intervals.
enum class LexStatus {
  kZero,         ///< every entry is exactly 0
  kPositive,     ///< definitely lexicographically positive
  kNonNegative,  ///< definitely >= 0 lexicographically, may be zero
  kNegative,     ///< definitely lexicographically negative
  kUnknown,      ///< cannot be decided from the intervals
};

LexStatus lex_status(const DepVector& v);

/// lex_status, additionally reporting the index of the entry that
/// decided the verdict through `decided_at` (may be null): the
/// definitely-positive entry for kPositive, the entry that broke the
/// walk for kNegative/kUnknown, -1 when the status is a property of
/// the whole vector (kZero, kNonNegative).
LexStatus lex_status_at(const DepVector& v, int* decided_at);

/// "positive", "zero", "non-negative", "negative", "unknown".
const char* lex_status_name(LexStatus s);

/// M * d with interval entries.
DepVector transform_dep(const IntMat& m, const DepVector& d);

/// Project onto a subset of positions, in the given order.
DepVector project_dep(const DepVector& d, const std::vector<int>& positions);

/// Build from exact integers.
DepVector dep_from_ints(const IntVec& v);

std::string dep_to_string(const DepVector& v);

}  // namespace inlt
