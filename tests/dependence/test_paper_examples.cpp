// Reproduces the dependence analysis results of §3 and §5.4.
#include <gtest/gtest.h>

#include "dependence/analyzer.hpp"
#include "ir/gallery.hpp"

namespace inlt {
namespace {

// Find a dependence with the given endpoints and vector rendering.
bool has_dep(const DependenceSet& ds, const std::string& src,
             const std::string& dst, const std::string& vec) {
  for (const Dependence& d : ds.deps)
    if (d.src == src && d.dst == dst && dep_to_string(d.vector) == vec)
      return true;
  return false;
}

TEST(DependencePaper, Section3FlowDependence) {
  // "the flow dependence in the above example will be represented in
  // our framework as [0, 1, -1, +]'."
  Program p = gallery::simplified_cholesky();
  IvLayout layout(p);
  DependenceSet ds = analyze_dependences(layout);
  EXPECT_TRUE(has_dep(ds, "S1", "S2", "[0, 1, -1, +]")) << ds.to_string();
}

TEST(DependencePaper, Section3SecondColumn) {
  // The paper's second column is [1, -1, 1, 0]': flow from S2 (writing
  // A(J)) to S1 (reading A(I)). The distance printed in the paper is
  // the value-based (last-write) representative; the memory-based
  // projection the §3 procedure actually describes gives Δ_I = '+'
  // (every write S2(i, j) with i < j reaches the read S1(j), not just
  // i = j-1). Our analyzer reports the memory-based vector, which
  // subsumes the paper's column; EXPERIMENTS.md records the deviation.
  Program p = gallery::simplified_cholesky();
  IvLayout layout(p);
  DependenceSet ds = analyze_dependences(layout);
  EXPECT_TRUE(has_dep(ds, "S2", "S1", "[+, -1, 1, 0]")) << ds.to_string();
  // The paper's distance-1 instance is witnessed: S2(i, i+1) -> S1(i+1)
  // is inside the '+' direction (checked by the brute-force coverage
  // test in test_brute_force.cpp).
}

TEST(DependencePaper, AllVectorsLexicographicallyNonNegative) {
  // Theorem 1 ⇒ every dependence vector (dest − src in a legal source
  // program) is lexicographically positive.
  for (Program p : {gallery::simplified_cholesky(), gallery::cholesky(),
                    gallery::augmentation_example()}) {
    IvLayout layout(p);
    DependenceSet ds = analyze_dependences(layout);
    ASSERT_FALSE(ds.deps.empty());
    for (const Dependence& d : ds.deps) {
      LexStatus st = lex_status(d.vector);
      EXPECT_TRUE(st == LexStatus::kPositive || st == LexStatus::kUnknown)
          << dep_to_string(d.vector);
    }
  }
}

TEST(DependencePaper, Section54DependenceMatrix) {
  // §5.4: D = [[1,1],[0,-1],[0,1],[1,-1]] — two dependences:
  //  S1 self-dependence [1,0,0,1]' (B(I) = B(I-1) recurrence) and
  //  flow S2 -> S1 [1,-1,1,-1]'.
  //
  // Note the paper prints the columns as {[1,0,0,1], [1,-1,1,-1]};
  // our analyzer also reports them.
  Program p = gallery::augmentation_example();
  IvLayout layout(p);
  DependenceSet ds = analyze_dependences(layout);
  EXPECT_TRUE(has_dep(ds, "S1", "S1", "[1, 0, 0, 1]")) << ds.to_string();
  EXPECT_TRUE(has_dep(ds, "S2", "S1", "[1, -1, 1, -1]")) << ds.to_string();
}

TEST(DependencePaper, FlowKindsAreLabeled) {
  Program p = gallery::simplified_cholesky();
  IvLayout layout(p);
  DependenceSet ds = analyze_dependences(layout);
  bool saw_flow = false, saw_anti_or_output = false;
  for (const Dependence& d : ds.deps) {
    if (d.kind == DepKind::kFlow) saw_flow = true;
    if (d.kind != DepKind::kFlow) saw_anti_or_output = true;
  }
  EXPECT_TRUE(saw_flow);
  EXPECT_TRUE(saw_anti_or_output);
}

TEST(DependencePaper, ZeroPadAblationChangesVectors) {
  // DESIGN.md ablation: padding mode affects padded rows only.
  Program p = gallery::simplified_cholesky();
  IvLayout layout(p);
  DependenceSet diag = analyze_dependences(layout, PadMode::kDiagonal);
  DependenceSet zero = analyze_dependences(layout, PadMode::kZero);
  ASSERT_FALSE(diag.deps.empty());
  ASSERT_FALSE(zero.deps.empty());
  // The S1->S2 flow dependence differs in the padded J row: diagonal
  // pads give Δ_J = Jr - Iw = '+', zero pads give Δ_J = Jr - 0 = '+' as
  // well... but the S2->S1 dep [1,-1,1,0] becomes [1,-1,1,-] under
  // zero padding only in the padded row of S1. Just check both runs
  // produce the same number of dependences and at least one vector
  // differs.
  EXPECT_EQ(diag.deps.size(), zero.deps.size());
  bool any_diff = false;
  for (size_t i = 0; i < diag.deps.size(); ++i)
    if (dep_to_string(diag.deps[i].vector) !=
        dep_to_string(zero.deps[i].vector))
      any_diff = true;
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace inlt
