// End-to-end property sweep: random imperfect nests, random
// transformation attempts. Whatever the framework ACCEPTS must be
// SEMANTICALLY CORRECT — legality, augmentation, bound generation and
// guards are all exercised against the interpreter oracle. Rejections
// are fine; silent miscompiles are not.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "codegen/generate.hpp"
#include "codegen/simplify.hpp"
#include "common/fuzz_programs.hpp"
#include "exec/verify.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "transform/completion.hpp"
#include "transform/transforms.hpp"

namespace inlt {
namespace {

using testutil::random_matrix;
using testutil::random_program;

class PipelineFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PipelineFuzz, AcceptedTransformationsVerify) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 2654435761u);
  int accepted = 0;
  for (int trial = 0; trial < 25; ++trial) {
    Program p = random_program(rng);
    IvLayout layout(p);
    DependenceSet deps = analyze_dependences(layout);
    IntMat m = random_matrix(rng, layout);
    CodegenResult res;
    try {
      res = generate_code(layout, deps, m);
    } catch (const TransformError&) {
      continue;  // rejection is always allowed
    }
    ++accepted;
    Program simp = simplify_program(res.program);
    for (i64 n : {1, 2, 4, 6}) {
      VerifyResult v =
          verify_equivalence(p, res.program, {{"N", n}}, FillKind::kRandom);
      ASSERT_TRUE(v.equivalent)
          << "MISCOMPILE at N=" << n << "\nsource:\n" << print_program(p)
          << "\nmatrix:\n" << mat_to_string(m) << "\ngenerated:\n"
          << print_program(res.program) << "\n" << v.to_string();
      VerifyResult vs =
          verify_equivalence(p, simp, {{"N", n}}, FillKind::kRandom);
      ASSERT_TRUE(vs.equivalent)
          << "SIMPLIFY MISCOMPILE at N=" << n << "\nsource:\n"
          << print_program(p) << "\nsimplified:\n" << print_program(simp);
    }
  }
  // The sweep must exercise the accept path, not reject everything.
  EXPECT_GT(accepted, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz, ::testing::Range(1, 9));

class CompletionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CompletionFuzz, CompletedTransformationsVerify) {
  // Completion with an empty partial must always succeed on legal
  // source programs (identity is available) and generate verified
  // code.
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 40503u);
  for (int trial = 0; trial < 10; ++trial) {
    Program p = random_program(rng);
    IvLayout layout(p);
    DependenceSet deps = analyze_dependences(layout);
    CompletionResult res = complete_transformation(layout, deps, {});
    ASSERT_TRUE(res.legality.legal());
    CodegenResult cg = generate_code(layout, deps, res.matrix);
    VerifyResult v =
        verify_equivalence(p, cg.program, {{"N", 5}}, FillKind::kRandom);
    ASSERT_TRUE(v.equivalent)
        << print_program(p) << "\n" << mat_to_string(res.matrix);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompletionFuzz, ::testing::Range(1, 7));

class CrossPipelineFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CrossPipelineFuzz, HullAndExactPipelinesAgree) {
  // Whenever the hull pipeline accepts a matrix, the exact pipeline
  // must accept it too (conservativeness), and both generated programs
  // must be equivalent to the source and to each other.
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 69069u + 5);
  int accepted = 0;
  for (int trial = 0; trial < 15; ++trial) {
    Program p = random_program(rng);
    IvLayout layout(p);
    DependenceSet deps = analyze_dependences(layout);
    IntMat m = random_matrix(rng, layout);
    CodegenResult hull;
    try {
      hull = generate_code(layout, deps, m);
    } catch (const TransformError&) {
      continue;
    }
    ++accepted;
    ExactCodegenResult exact;
    ASSERT_NO_THROW(exact = generate_code_exact(layout, m))
        << "exact pipeline rejected a hull-accepted matrix\n"
        << print_program(p) << mat_to_string(m);
    for (i64 n : {2, 5}) {
      VerifyResult va =
          verify_equivalence(p, hull.program, {{"N", n}}, FillKind::kRandom);
      ASSERT_TRUE(va.equivalent) << va.to_string();
      VerifyResult vb = verify_equivalence(p, exact.program, {{"N", n}},
                                           FillKind::kRandom);
      ASSERT_TRUE(vb.equivalent) << vb.to_string();
    }
  }
  EXPECT_GT(accepted, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossPipelineFuzz, ::testing::Range(1, 6));

class ScalingFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ScalingFuzz, ScaledCompositionsVerify) {
  // Random compositions that include a scaling: exercises the
  // reconstruction-loop path of codegen against the oracle.
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 31337u);
  std::uniform_int_distribution<int> factor(2, 3);
  int accepted = 0;
  for (int trial = 0; trial < 12; ++trial) {
    Program p = random_program(rng);
    IvLayout layout(p);
    DependenceSet deps = analyze_dependences(layout);
    IntMat m = mat_mul(loop_scaling(layout, rng() % 2 ? "I" : "J",
                                    factor(rng)),
                       random_matrix(rng, layout));
    CodegenResult res;
    try {
      res = generate_code(layout, deps, m);
    } catch (const TransformError&) {
      continue;
    }
    ++accepted;
    for (i64 n : {1, 3, 5}) {
      VerifyResult v =
          verify_equivalence(p, res.program, {{"N", n}}, FillKind::kRandom);
      ASSERT_TRUE(v.equivalent)
          << "SCALED MISCOMPILE N=" << n << "\n" << print_program(p)
          << mat_to_string(m) << "\n" << print_program(res.program);
    }
    // The generated (guarded, reconstructed) program also parses back.
    Program re = parse_program(print_program(res.program));
    VerifyResult v2 =
        verify_equivalence(p, re, {{"N", 4}}, FillKind::kRandom);
    ASSERT_TRUE(v2.equivalent) << print_program(res.program);
  }
  EXPECT_GT(accepted, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScalingFuzz, ::testing::Range(1, 6));

}  // namespace
}  // namespace inlt
