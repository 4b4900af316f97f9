// Code generation (§5): from a legal transformation matrix to an
// executable transformed program.
//
// Pipeline:
//  1. NewAST recovers the transformed AST (Fig 6).
//  2. Definition 6's legality test runs; illegal matrices are rejected.
//  3. Per-statement transformations are computed and augmented with
//     extra loops for unsatisfied self-dependences (Fig 7, Theorem 3).
//  4. N_S (Definition 8) selects the non-singular loops; loop bounds
//     come from Fourier–Motzkin elimination over each statement's
//     transformed iteration polyhedron (Lemma 3); singular loops
//     (Definition 9) collapse to a single guarded iteration computed
//     from the linear combination of §5.5.
//  5. Loops shared by statements with different ranges get cover-mode
//     union bounds plus per-statement guards; statement bodies are
//     rewritten in terms of the new loop variables.
//  6. Non-unimodular per-statement transformations (loop scaling)
//     generate single-iteration reconstruction loops whose ceil/floor
//     bounds encode both the source iteration value and the stride
//     (lattice-membership) condition.
#pragma once

#include "transform/exact_legality.hpp"
#include "transform/per_statement.hpp"

namespace inlt {

struct CodegenResult {
  Program program;  ///< executable transformed program
  LegalityResult legality;
  std::vector<StatementPlan> plans;
};

/// Generate the transformed program for a legal transformation matrix,
/// padding instance vectors by `pad`. Throws TransformError for illegal
/// or unsupported matrices.
CodegenResult generate_code(const IvLayout& src, const DependenceSet& deps,
                            const IntMat& m,
                            PadMode pad = PadMode::kDiagonal);

struct ExactCodegenResult {
  Program program;
  ExactLegalityResult legality;
  std::vector<StatementPlan> plans;
};

/// Like generate_code, but legality (and the unsatisfied-dependence
/// detection that drives augmentation) is decided by the exact ILP
/// test of transform/exact_legality.hpp instead of direction-vector
/// hulls. Accepts some matrices the hull test conservatively rejects.
ExactCodegenResult generate_code_exact(const IvLayout& src, const IntMat& m,
                                       PadMode pad = PadMode::kDiagonal);

}  // namespace inlt
