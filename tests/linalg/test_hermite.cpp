#include <gtest/gtest.h>

#include <random>

#include "linalg/gauss.hpp"
#include "linalg/hermite.hpp"

namespace inlt {
namespace {

// Checks the HNF invariants of `a` and returns the number of pivots
// (the rank, for an echelon form).
int expect_hnf_invariants(const IntMat& a) {
  HermiteResult hr = hermite_normal_form(a);
  // H = A * U and U unimodular.
  EXPECT_EQ(mat_mul(a, hr.u), hr.h);
  EXPECT_TRUE(is_unimodular(hr.u));
  // Echelon shape: pivots step strictly right-down; pivots positive;
  // entries left of a pivot reduced into [0, pivot).
  int prev_pivot_col = -1;
  int pivots = 0;
  for (int r = 0; r < hr.h.rows(); ++r) {
    int last_nonzero = -1;
    for (int c = 0; c < hr.h.cols(); ++c)
      if (hr.h(r, c) != 0) last_nonzero = c;
    if (last_nonzero < 0) continue;  // zero row
    if (last_nonzero > prev_pivot_col) {
      // this row introduces a new pivot at last_nonzero
      EXPECT_GT(hr.h(r, last_nonzero), 0);
      for (int c = 0; c < last_nonzero; ++c) {
        EXPECT_GE(hr.h(r, c), 0);
        EXPECT_LT(hr.h(r, c), hr.h(r, last_nonzero));
      }
      prev_pivot_col = last_nonzero;
      ++pivots;
    }
  }
  return pivots;
}

TEST(Hermite, SimpleExamples) {
  expect_hnf_invariants(IntMat{{2, 4}, {1, 3}});
  expect_hnf_invariants(IntMat{{4, 6}});
  expect_hnf_invariants(IntMat{{0, 0}, {0, 0}});
  expect_hnf_invariants(IntMat{{1, 0, 0}, {0, 1, 0}});
}

TEST(Hermite, GcdShowsUp) {
  // Row [4, 6] has gcd 2: HNF pivot must be 2.
  HermiteResult hr = hermite_normal_form(IntMat{{4, 6}});
  EXPECT_EQ(hr.h(0, 0), 2);
  EXPECT_EQ(hr.h(0, 1), 0);
}

TEST(Hermite, UnimodularInputGivesIdentityLattice) {
  IntMat m{{1, 1}, {0, 1}};
  HermiteResult hr = hermite_normal_form(m);
  // The column lattice of a unimodular matrix is Z^2: pivots are 1.
  EXPECT_EQ(hr.h(0, 0), 1);
  EXPECT_EQ(hr.h(1, 1), 1);
}

TEST(Hermite, IsUnimodular) {
  EXPECT_TRUE(is_unimodular(IntMat{{1, 1}, {0, 1}}));
  EXPECT_TRUE(is_unimodular(IntMat{{0, 1}, {1, 0}}));
  EXPECT_FALSE(is_unimodular(IntMat{{2, 0}, {0, 1}}));
  EXPECT_FALSE(is_unimodular(IntMat(2, 3)));
}

TEST(Hermite, CompleteToNonsingular) {
  IntMat rows{{1, -1, 0}};
  IntMat full = complete_to_nonsingular(rows);
  EXPECT_EQ(full.rows(), 3);
  EXPECT_EQ(rank(full), 3);
  EXPECT_EQ(full.row(0), (IntVec{1, -1, 0}));
}

TEST(Hermite, CompleteDependentRowsThrows) {
  EXPECT_THROW(complete_to_nonsingular(IntMat{{1, 0}, {2, 0}}), Error);
}

class NormalFormRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(NormalFormRandomTest, InvariantsHoldOnRandomMatrices) {
  std::mt19937 rng(GetParam() * 7919);
  std::uniform_int_distribution<int> dim(1, 4), val(-5, 5);
  for (int trial = 0; trial < 15; ++trial) {
    int r = dim(rng), c = dim(rng);
    IntMat m(r, c);
    for (int i = 0; i < r; ++i)
      for (int j = 0; j < c; ++j) m(i, j) = val(rng);
    // HNF agrees with Gauss on rank.
    EXPECT_EQ(expect_hnf_invariants(m), rank(m));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormalFormRandomTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace inlt
