// Shared constraint-system construction for dependence queries.
//
// Both the direction-vector analyzer (§3) and the exact ILP legality
// checker build, for each pair of conflicting accesses and each
// execution-order disjunct, the affine system of §3: loop bounds for
// both sides, same-array-location equalities, and the source-precedes-
// destination ordering. Source-side loop variables are prefixed "s$",
// destination-side "d$"; parameters keep their names.
#pragma once

#include <vector>

#include "dependence/direction.hpp"
#include "instance/layout.hpp"
#include "linalg/constraint.hpp"

namespace inlt {

/// One feasible (access pair, ordering disjunct) system.
struct PairSystem {
  std::string src;  ///< source statement label
  std::string dst;  ///< destination statement label
  DepKind kind = DepKind::kFlow;
  std::string array;
  /// Ordering disjunct: number of common loops constrained equal
  /// before the strict inequality (== common count for the syntactic
  /// disjunct).
  int level = 0;
  ConstraintSystem base;
};

/// Enumerate every integer-feasible pair system of the program.
std::vector<PairSystem> build_pair_systems(const IvLayout& layout);

/// The value of instance-vector position q for statement `label`, as a
/// LinExpr over `cs`'s variables (uses "s$"/"d$" prefixes per side).
LinExpr position_value_expr(const ConstraintSystem& cs,
                            const IvLayout& layout, const std::string& label,
                            int q, bool src_side, PadMode pad);

/// Convex hull of the integer values `delta` takes over the (feasible)
/// system: the shadow of one projection onto Δ, each finite end
/// confirmed by integer feasibility tests.
DepEntry classify_delta(const ConstraintSystem& cs, const LinExpr& delta);

/// a - b over cs's variable space.
LinExpr lin_subtract(const ConstraintSystem& cs, const LinExpr& a,
                     const LinExpr& b);
/// -e.
LinExpr lin_negate(const LinExpr& e);

}  // namespace inlt
