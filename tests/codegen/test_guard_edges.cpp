// Guard edge cases for codegen + simplify: singular-loop guards under
// zero-trip bounds, negative-step (reversed) loops, and divisibility
// guards from scaling — each cross-checked against the source on the
// VM, including the parameter values where loops collapse or vanish.
#include <gtest/gtest.h>

#include "codegen/generate.hpp"
#include "codegen/simplify.hpp"
#include "exec/verify.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "transform/transforms.hpp"

namespace inlt {
namespace {

// Interpret on the VM and return the stats (arrays declared and
// filled the same way verify_equivalence fills its source side).
InterpStats vm_stats(const Program& p, i64 n) {
  Memory mem;
  const std::map<std::string, i64> params = {{"N", n}};
  declare_arrays(p, params, mem);
  fill_spd(mem, 1);
  InterpOptions io;
  io.engine = ExecEngine::kVm;
  return interpret(p, params, mem, io);
}

void expect_equivalent(const Program& src, const Program& dst, i64 n,
                       FillKind fill = FillKind::kRandom) {
  VerifyResult v = verify_equivalence(src, dst, {{"N", n}}, fill,
                                      /*seed=*/1, ExecEngine::kVm);
  EXPECT_TRUE(v.equivalent)
      << "N=" << n << ": " << v.to_string() << "\n" << print_program(dst);
}

TEST(GuardEdges, SingularGuardSurvivesMinimalAndZeroTripSizes) {
  // §5.5's skewed example: S1 lives under a singular (guarded
  // single-iteration) loop. At N=1 the outer loop collapses to one
  // iteration and the guard must still fire S1 exactly once; the raw
  // and the simplified programs must both agree with the source.
  Program src = gallery::augmentation_example();
  IvLayout layout(src);
  DependenceSet deps = analyze_dependences(layout);
  CodegenResult res =
      generate_code(layout, deps, loop_skew(layout, "I", "J", -1));
  Program simp = simplify_program(res.program);
  for (i64 n : {1, 2, 3, 7}) {
    expect_equivalent(src, res.program, n);
    expect_equivalent(src, simp, n);
  }
  // The singular guard really is evaluated and suppresses instances:
  // for N >= 2 the wrapper's I >= 0 guard fails on every negative I.
  InterpStats st = vm_stats(simp, 7);
  EXPECT_GT(st.guard_failures, 0);
  // ...but simplify must not leave more guard work than the guard the
  // paper's listing keeps (one failure per suppressed outer value).
  EXPECT_EQ(st.guard_failures, 6);
}

TEST(GuardEdges, ReversedLoopRunsNegativeStepBounds) {
  // A dependence-free nest: reversing either loop is legal and the
  // generated bounds run through negative values. The VM must execute
  // the same instance set in the new order, including N=1 where the
  // reversed range is a single (negative) value.
  Program src = parse_program(R"(param N
do I = 1, N
  do J = 1, N
    S1: C(I, J) = A(J, I) + f(I, J)
  end
end
)");
  IvLayout layout(src);
  DependenceSet deps = analyze_dependences(layout);
  const std::vector<std::string> vars = {"I", "J"};
  for (const std::string& var : vars) {
    CodegenResult res =
        generate_code(layout, deps, loop_reversal(layout, var));
    Program simp = simplify_program(res.program);
    // The reversed loop's range is negative: its lower bound mentions
    // -N (the reversed image of the original upper bound).
    EXPECT_NE(print_program(simp).find("-N"), std::string::npos)
        << print_program(simp);
    for (i64 n : {1, 2, 5}) {
      expect_equivalent(src, res.program, n);
      expect_equivalent(src, simp, n);
    }
  }
}

TEST(GuardEdges, ReversedSingularGuardCombination) {
  // Reversal composed with the §5.5 skew: the singular wrapper's guard
  // now decides against a loop that steps downward. Skip silently if
  // the composition is illegal for this nest — the point is that
  // whenever codegen accepts it, execution must match.
  Program src = gallery::augmentation_example();
  IvLayout layout(src);
  DependenceSet deps = analyze_dependences(layout);
  IntMat m = loop_skew(layout, "I", "J", -1);
  IntMat rev = loop_reversal(layout, "J");
  IntMat composed = mat_mul(rev, m);
  if (!check_legality(layout, deps, composed).legal()) GTEST_SKIP();
  CodegenResult res = generate_code(layout, deps, composed);
  Program simp = simplify_program(res.program);
  for (i64 n : {1, 2, 5}) {
    expect_equivalent(src, res.program, n);
    expect_equivalent(src, simp, n);
  }
}

TEST(GuardEdges, ZeroTripInnerLoopPreservedByInterchange) {
  // A triangular inner loop that is zero-trip at its last outer value
  // (and everywhere when N = 1). Interchange must keep the empty
  // iteration sets empty — guards and bounds, not dropped instances.
  Program src = parse_program(R"(param N
do I = 1, N
  do J = I + 1, N
    S1: A(I, J) = A(J, I) + f(I, J)
  end
end
)");
  IvLayout layout(src);
  DependenceSet deps = analyze_dependences(layout);
  IntMat swap = loop_interchange(layout, "I", "J");
  ASSERT_TRUE(check_legality(layout, deps, swap).legal());
  CodegenResult res = generate_code(layout, deps, swap);
  Program simp = simplify_program(res.program);
  for (i64 n : {1, 2, 3, 6}) {
    expect_equivalent(src, res.program, n);
    expect_equivalent(src, simp, n);
  }
  // N=1: the whole nest is zero-trip on both sides.
  InterpStats st = vm_stats(simp, 1);
  EXPECT_EQ(st.instances, 0);
}

TEST(GuardEdges, ScalingDivisibilityVmChecked) {
  // Scaling stretches the lattice: the generated outer loop runs over
  // the scaled range and divisibility is enforced by a singular inner
  // loop (ceil(I,3)..floor(I,3)) that is zero-trip off the lattice —
  // it must keep exactly the original instances, checked at sizes
  // where the last outer value is and is not a multiple of the factor.
  Program src = parse_program(R"(param N
do I = 1, N
  S1: B(I) = B(I) + f(I)
end
)");
  IvLayout layout(src);
  DependenceSet deps = analyze_dependences(layout);
  CodegenResult res = generate_code(layout, deps, loop_scaling(layout, "I", 3));
  Program simp = simplify_program(res.program);
  for (i64 n : {1, 2, 3, 4, 9, 10}) {
    expect_equivalent(src, res.program, n);
    expect_equivalent(src, simp, n);
    // Same instance count as the source: the singular loop admits
    // exactly the multiples of 3 in the stretched range.
    EXPECT_EQ(vm_stats(simp, n).instances, n);
  }
  // The stretched range really is walked: the outer loop visits
  // 3N - 2 values but only N of them enter the zero-trip filter.
  InterpStats st = vm_stats(res.program, 9);
  EXPECT_GT(st.loop_iterations, 2 * st.instances);
}

}  // namespace
}  // namespace inlt
