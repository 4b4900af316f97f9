// IncrementalLegality: row-by-row verdicts must agree with the batch
// Definition 6 test on every structure-preserving candidate, and the
// prefix pruning must be sound (a dead prefix has no legal
// completions).
#include "transform/incremental.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "dependence/analyzer.hpp"
#include "ir/gallery.hpp"
#include "transform/legality.hpp"
#include "transform/transforms.hpp"

namespace inlt {
namespace {

// All loop-order permutations of the nest, via loop_permutation (edge
// rows identity, one unit row per loop position).
std::vector<IntMat> all_permutations(const IvLayout& layout) {
  std::vector<std::string> vars;
  for (int p : layout.all_loop_positions())
    vars.push_back(layout.positions()[p].name);
  std::sort(vars.begin(), vars.end());
  std::vector<IntMat> out;
  do {
    out.push_back(loop_permutation(layout, vars));
  } while (std::next_permutation(vars.begin(), vars.end()));
  return out;
}

// The engine's class: square matrices of layout width whose edge rows
// are identity rows (loop rows are unconstrained — permutations, skews,
// alignments all qualify).
bool supports(const IvLayout& layout, const IntMat& m) {
  if (m.rows() != layout.size() || m.cols() != layout.size()) return false;
  for (int p = 0; p < layout.size(); ++p) {
    if (layout.positions()[p].kind != PositionKind::kEdge) continue;
    for (int j = 0; j < m.cols(); ++j)
      if (m(p, j) != (j == p ? 1 : 0)) return false;
  }
  return true;
}

// The engine's verdict on a complete matrix: push its loop rows
// outermost first (stopping at a dead prefix), read the verdict, and
// pop back to the empty stack.
bool check(IncrementalLegality& engine, const IvLayout& layout,
           const IntMat& m) {
  const std::vector<int> slots = layout.all_loop_positions();
  int pushed = 0;
  bool viable = true;
  for (size_t s = 0; s < slots.size() && viable; ++s) {
    IntVec row(m.cols());
    for (int j = 0; j < m.cols(); ++j) row[j] = m(slots[s], j);
    viable = engine.push_row(row);
    ++pushed;
  }
  bool legal = viable && engine.current_legal();
  for (int s = 0; s < pushed; ++s) engine.pop_row();
  return legal;
}

class IncrementalEquivalence : public ::testing::TestWithParam<int> {};

Program gallery_program(int which) {
  switch (which) {
    case 0:
      return gallery::simplified_cholesky();
    case 1:
      return gallery::cholesky();
    case 2:
      return gallery::lu();
    default:
      return gallery::fig3_perfect_nest();
  }
}

TEST_P(IncrementalEquivalence, MatchesBatchLegalityOnAllPermutations) {
  Program p = gallery_program(GetParam());
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  IncrementalLegality engine(layout, deps);

  int agree = 0;
  for (const IntMat& m : all_permutations(layout)) {
    ASSERT_TRUE(supports(layout, m));
    bool batch = check_legality(layout, deps, m).legal();
    EXPECT_EQ(check(engine, layout, m), batch) << "program " << GetParam();
    ++agree;
  }
  EXPECT_GT(agree, 0);
}

INSTANTIATE_TEST_SUITE_P(Gallery, IncrementalEquivalence,
                         ::testing::Values(0, 1, 2, 3));

TEST(IncrementalLegalityTest, MatchesBatchOnSkewedCandidates) {
  Program p = gallery::cholesky();
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  IncrementalLegality engine(layout, deps);

  // Permutations composed with single-loop skews of every (target,
  // source) pair and factor in [-2, 2].
  std::vector<std::string> vars;
  for (int pos : layout.all_loop_positions())
    vars.push_back(layout.positions()[pos].name);
  int checked = 0;
  for (const IntMat& perm : all_permutations(layout)) {
    for (const std::string& t : vars)
      for (const std::string& s : vars) {
        if (t == s) continue;
        for (i64 f = -2; f <= 2; ++f) {
          IntMat m = mat_mul(perm, loop_skew(layout, t, s, f));
          if (!supports(layout, m)) continue;
          bool batch = check_legality(layout, deps, m).legal();
          ASSERT_EQ(check(engine, layout, m), batch)
              << "skew " << t << " by " << s << " * " << f;
          ++checked;
        }
      }
  }
  EXPECT_GT(checked, 100);
}

TEST(IncrementalLegalityTest, DeadPrefixHasNoLegalCompletion) {
  // Exhaustively: whenever push_row reports a prefix dead, every
  // permutation completing it must be batch-illegal.
  Program p = gallery::cholesky();
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  IncrementalLegality engine(layout, deps);
  std::vector<int> slots = layout.all_loop_positions();

  for (const IntMat& m : all_permutations(layout)) {
    bool dead = false;
    int pushed = 0;
    for (size_t s = 0; s < slots.size(); ++s) {
      IntVec row(m.cols());
      for (int j = 0; j < m.cols(); ++j) row[j] = m(slots[s], j);
      bool viable = engine.push_row(row);
      ++pushed;
      if (!viable) {
        dead = true;
        break;
      }
    }
    if (dead) {
      EXPECT_FALSE(check_legality(layout, deps, m).legal());
      EXPECT_FALSE(engine.prefix_viable());
      EXPECT_GE(engine.killer(), 0);
    }
    for (int s = 0; s < pushed; ++s) engine.pop_row();
  }
}

TEST(IncrementalLegalityTest, UnsatisfiedMatchesBatchResult) {
  Program p = gallery::simplified_cholesky();
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  IncrementalLegality engine(layout, deps);

  for (const IntMat& m : all_permutations(layout)) {
    LegalityResult batch = check_legality(layout, deps, m);
    if (!batch.legal()) continue;
    std::vector<int> slots = layout.all_loop_positions();
    for (size_t s = 0; s < slots.size(); ++s) {
      IntVec row(m.cols());
      for (int j = 0; j < m.cols(); ++j) row[j] = m(slots[s], j);
      ASSERT_TRUE(engine.push_row(row));
    }
    ASSERT_TRUE(engine.current_legal());
    EXPECT_EQ(engine.current_unsatisfied(), batch.unsatisfied);
    for (size_t s = 0; s < slots.size(); ++s) engine.pop_row();
  }
}

TEST(IncrementalLegalityTest, PopReturnsToTheParentFrame) {
  // A dead sibling must not leak into the next one: after popping a
  // dead row, the parent frame decides the next push afresh, and a
  // push onto a dead prefix inherits its killer.
  Program p = gallery::cholesky();
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  IncrementalLegality engine(layout, deps);
  const std::vector<int> slots = layout.all_loop_positions();
  auto unit = [&](int slot, i64 sign) {
    IntVec row(layout.size(), 0);
    row[slots[slot]] = sign;
    return row;
  };

  ASSERT_TRUE(engine.push_row(unit(0, 1)));
  EXPECT_EQ(engine.killer(), -1);
  // Reversing the outermost loop kills the prefix at slot 0.
  engine.pop_row();
  ASSERT_FALSE(engine.push_row(unit(0, -1)));
  const int killer = engine.killer();
  EXPECT_GE(killer, 0);
  EXPECT_EQ(engine.killer_row(), 0);
  EXPECT_FALSE(engine.push_row(unit(1, 1)));
  EXPECT_EQ(engine.killer(), killer);
  EXPECT_EQ(engine.killer_row(), 0);
  engine.pop_row();
  engine.pop_row();
  EXPECT_EQ(engine.depth(), 0);
  ASSERT_TRUE(engine.push_row(unit(0, 1)));
  EXPECT_TRUE(engine.prefix_viable());
  EXPECT_EQ(engine.killer(), -1);
  EXPECT_EQ(engine.killer_row(), -1);
}

TEST(IncrementalLegalityTest, SupportsRejectsNonIdentityEdgeRows) {
  Program p = gallery::simplified_cholesky();
  IvLayout layout(p);

  EXPECT_TRUE(supports(layout, IntMat::identity(layout.size())));
  // Statement reordering permutes edge rows: outside the engine's class.
  IntMat reorder = statement_reorder(layout, "I", {1, 0});
  EXPECT_FALSE(supports(layout, reorder));
  // Wrong shape.
  EXPECT_FALSE(supports(layout, IntMat::identity(layout.size() + 1)));
}

}  // namespace
}  // namespace inlt
