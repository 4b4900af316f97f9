// Random program generator shared by the pipeline fuzz sweeps and the
// array-sizing probe's differential test.
#pragma once

#include <random>

#include "instance/layout.hpp"
#include "ir/ast.hpp"
#include "linalg/matrix.hpp"

namespace inlt::testutil {

/// A family of small imperfect nests over `param N` with recurrences,
/// cross-statement flows and padded statements.
Program random_program(std::mt19937& rng);

/// A random candidate transformation of a random_program() nest, built
/// from the basic generators (interchange, skew, reversal, statement
/// reordering of the root loop).
IntMat random_matrix(std::mt19937& rng, const IvLayout& layout);

}  // namespace inlt::testutil
