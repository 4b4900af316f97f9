// §2's unexplored design point, explored: "There are other reasonable
// ways to define this embedding". Zero padding is one — and on the
// §5.4 skew example it is strictly nicer: S1's instances stay spread
// over the new outer loop (time = I instead of 0), so no augmentation
// and no singular loop are needed, while diagonal padding collapses S1
// to a point and must rebuild the loop.
#include <gtest/gtest.h>

#include "codegen/generate.hpp"
#include "exec/trace.hpp"
#include "exec/verify.hpp"
#include "ir/gallery.hpp"
#include "ir/printer.hpp"
#include "transform/transforms.hpp"

namespace inlt {
namespace {

TEST(PadAblation, ZeroPadSkewNeedsNoAugmentation) {
  Program p = gallery::augmentation_example();
  IvLayout layout(p);
  IntMat m = loop_skew(layout, "I", "J", -1);

  // Diagonal padding (the paper's embedding): S1 collapses, one
  // augmented loop.
  {
    DependenceSet deps = analyze_dependences(layout, PadMode::kDiagonal);
    CodegenResult res = generate_code(layout, deps, m, PadMode::kDiagonal);
    EXPECT_EQ(res.plans[0].t_full.rows(), 2);  // [0] augmented to [0;1]
    EXPECT_FALSE(res.legality.unsatisfied.empty());
  }

  // Zero padding: S1's transformed time is I itself — full rank, no
  // unsatisfied self-dependences, no extra loop.
  {
    DependenceSet deps = analyze_dependences(layout, PadMode::kZero);
    CodegenResult res = generate_code(layout, deps, m, PadMode::kZero);
    EXPECT_EQ(res.plans[0].t_full.rows(), 1);
    EXPECT_TRUE(res.legality.unsatisfied.empty());
    for (i64 n : {1, 2, 5, 9}) {
      VerifyResult v = verify_equivalence(p, res.program, {{"N", n}},
                                          FillKind::kRandom);
      EXPECT_TRUE(v.equivalent)
          << "N=" << n << ": " << v.to_string() << "\n"
          << print_program(res.program);
    }
    TraceCheckResult t = check_dependence_order(p, res.program, {{"N", 6}});
    EXPECT_TRUE(t.ok) << t.diagnosis;
  }
}

TEST(PadAblation, BothEmbeddingsVerifyOnCholeskyCompletionInput) {
  // The identity transformation generates and verifies under both
  // embeddings (bounds and guards differ, semantics must not).
  Program p = gallery::cholesky();
  IvLayout layout(p);
  for (PadMode pad : {PadMode::kDiagonal, PadMode::kZero}) {
    DependenceSet deps = analyze_dependences(layout, pad);
    CodegenResult res =
        generate_code(layout, deps, IntMat::identity(7), pad);
    VerifyResult v = verify_equivalence(p, res.program, {{"N", 5}});
    EXPECT_TRUE(v.equivalent)
        << (pad == PadMode::kZero ? "zero" : "diagonal") << ": "
        << v.to_string();
  }
}

TEST(PadAblation, EmbeddingChangesLegalityVerdicts) {
  // The embeddings are not interchangeable: the §5.4 skew's per-
  // statement structure differs, and on simplified Cholesky the set of
  // legal unit outer rows can differ too. This documents that choosing
  // the embedding is a real design decision, as §2 hints.
  Program p = gallery::augmentation_example();
  IvLayout layout(p);
  DependenceSet diag = analyze_dependences(layout, PadMode::kDiagonal);
  DependenceSet zero = analyze_dependences(layout, PadMode::kZero);
  // The S2 -> S1 flow has Δ_J = -1 under diagonal padding and an
  // unbounded negative direction under zero padding.
  auto find = [](const DependenceSet& ds) {
    for (const Dependence& d : ds.deps)
      if (d.src == "S2" && d.dst == "S1" && d.kind == DepKind::kFlow)
        return dep_to_string(d.vector);
    return std::string("(missing)");
  };
  EXPECT_EQ(find(diag), "[1, -1, 1, -1]");
  EXPECT_NE(find(zero), find(diag));
}

}  // namespace
}  // namespace inlt
