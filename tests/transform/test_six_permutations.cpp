// C1 (§1/§5): "all six permutations of the loops in Cholesky
// factorization" — explored exhaustively through completion + code
// generation + semantic verification.
//
// Reproduction finding: under the paper's diagonal embedding, four of
// the six orderings of the update statement's (K, J, L) space are
// expressible and legal — the right-looking family (K outer) and the
// left-looking family (L outer, with the completion reordering S3
// first exactly as Fig 8 shows). The two J-outer (bordered /
// row-oriented) forms require S2's time coordinate to be its I value,
// but diagonal padding pins S2's J position to K — a different
// embedding, which §2 explicitly leaves unexplored. EXPERIMENTS.md
// records this as the one scoped-down claim.
//
// LU (gallery::lu()) has the same update space (K, J, L) and the same
// four expressible orders. The paper-claim benches time the simplified
// form of these programs, so it is verified alongside the raw one.
#include <gtest/gtest.h>

#include <algorithm>

#include "codegen/generate.hpp"
#include "codegen/simplify.hpp"
#include "exec/verify.hpp"
#include "ir/gallery.hpp"
#include "transform/completion.hpp"

namespace inlt {
namespace {

struct PermCase {
  std::string order;  // e.g. "KJL": sources for the 3 outer loop rows
  bool expect_legal;
  Program (*program)() = gallery::cholesky;
};

// Without a printer gtest dumps the raw bytes of the struct, which
// include the std::string's heap pointer, so every test listing (and
// hence every discovered ctest name) would differ between runs.
void PrintTo(const PermCase& pc, std::ostream* os) {
  *os << pc.order << (pc.expect_legal ? " (legal)" : " (illegal)");
}

class SixPermutations : public ::testing::TestWithParam<PermCase> {};

TEST_P(SixPermutations, CompleteGenerateVerify) {
  const PermCase& pc = GetParam();
  Program p = pc.program();
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);

  std::vector<IntVec> rows;
  for (char c : pc.order) {
    IntVec r(static_cast<size_t>(layout.size()), 0);
    r[layout.loop_position(std::string(1, c))] = 1;
    rows.push_back(r);
  }

  if (!pc.expect_legal) {
    EXPECT_THROW(complete_transformation(layout, deps, rows),
                 TransformError);
    return;
  }
  CompletionResult res = complete_transformation(layout, deps, rows);
  ASSERT_TRUE(res.legality.legal());
  CodegenResult cg = generate_code(layout, deps, res.matrix);
  const std::vector<Program> forms = {cg.program,
                                      simplify_program(cg.program)};
  for (const Program& q : forms)
    for (i64 n : {1, 2, 4, 8, 17, 64}) {
      VerifyResult v = verify_equivalence(p, q, {{"N", n}});
      EXPECT_TRUE(v.equivalent) << pc.order << " N=" << n << ": "
                                << v.to_string();
    }
  // The L-outer (left-looking) family must run the update nest first,
  // as in Fig 8 (the update is the source's last statement).
  if (pc.order[0] == 'L') {
    auto stmts = cg.program.statements();
    EXPECT_EQ(stmts[0].label(), p.statements().back().label());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOrders, SixPermutations,
    ::testing::Values(PermCase{"KJL", true}, PermCase{"KLJ", true},
                      PermCase{"LJK", true}, PermCase{"LKJ", true},
                      PermCase{"JKL", false}, PermCase{"JLK", false}),
    [](const ::testing::TestParamInfo<PermCase>& info) {
      return info.param.order;
    });

INSTANTIATE_TEST_SUITE_P(
    LuOrders, SixPermutations,
    ::testing::Values(PermCase{"KJL", true, gallery::lu},
                      PermCase{"KLJ", true, gallery::lu},
                      PermCase{"LJK", true, gallery::lu},
                      PermCase{"LKJ", true, gallery::lu},
                      PermCase{"JKL", false, gallery::lu},
                      PermCase{"JLK", false, gallery::lu}),
    [](const ::testing::TestParamInfo<PermCase>& info) {
      return info.param.order;
    });

TEST(SixPermutationsSummary, FourOfSixExpressible) {
  Program p = gallery::cholesky();
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  int legal = 0;
  std::vector<std::string> vars = {"J", "K", "L"};
  std::sort(vars.begin(), vars.end());
  do {
    std::vector<IntVec> rows;
    for (const std::string& v : vars) {
      IntVec r(7, 0);
      r[layout.loop_position(v)] = 1;
      rows.push_back(r);
    }
    try {
      complete_transformation(layout, deps, rows);
      ++legal;
    } catch (const TransformError&) {
    }
  } while (std::next_permutation(vars.begin(), vars.end()));
  EXPECT_EQ(legal, 4);
}

}  // namespace
}  // namespace inlt
