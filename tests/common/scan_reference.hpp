// Reference Δ classification: the bounded scan the dependence analyzer
// used before it projected onto Δ. For each end it runs one integer
// feasibility test per k in [-limit, limit]; an end beyond the window
// reads as unbounded (or as the window edge ±(limit + 1)). Kept here so
// the projection can be checked against it entry by entry.
#pragma once

#include "dependence/direction.hpp"
#include "linalg/constraint.hpp"

namespace inlt::testutil {

DepEntry classify_delta_scan(const ConstraintSystem& cs, const LinExpr& delta,
                             i64 limit = 8);

}  // namespace inlt::testutil
