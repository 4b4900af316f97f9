// Completion procedure for imperfectly nested loops (§6).
//
// Given the dependence matrix and a partial transformation — desired
// rows for the outermost target loops — the procedure appends rows for
// the remaining loops and chooses a statement reordering per AST node
// so that every dependence is satisfied by a loop or by syntactic
// order. It generalizes Li & Pingali's completion [10] to the
// block-structured matrices of this framework: loop rows are chosen
// greedily from unit candidates at dependence heights, and the child
// permutations come from a topological sort of the syntactic-order
// constraints that zero projections impose.
#pragma once

#include <optional>

#include "transform/legality.hpp"

namespace inlt {

struct CompletionResult {
  IntMat matrix;       ///< the completed transformation (legal)
  AstRecovery recovery;
  LegalityResult legality;
};

/// Complete a partial transformation. `partial_loop_rows[i]` is the
/// desired row (over source instance-vector positions) for the i-th
/// target loop in source-layout loop order; pass fewer rows than loops
/// to let the procedure choose the rest. Throws TransformError when no
/// completion exists (a partial row reverses a dependence, or the
/// syntactic-order constraints are cyclic).
CompletionResult complete_transformation(
    const IvLayout& src, const DependenceSet& deps,
    const std::vector<IntVec>& partial_loop_rows);

}  // namespace inlt
