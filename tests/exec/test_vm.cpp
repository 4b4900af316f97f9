// Differential suite: the bytecode VM (exec/vm.hpp) against the AST
// walker, bit for bit. Every gallery program, every tools/testdata/
// program and a set of transformed variants (skew, scaling with
// divisibility guards, distribution) runs under both engines on
// identical inputs across several seeds and both fill kinds; final
// memory must match to the last bit and InterpStats must be equal.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>

#include "codegen/generate.hpp"
#include "dependence/analyzer.hpp"
#include "exec/verify.hpp"
#include "exec/vm.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "support/trace.hpp"
#include "transform/transforms.hpp"

namespace inlt {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

Program load_testdata(const std::string& name) {
  return parse_program(read_file(std::string(INLT_TESTDATA_DIR) + "/" + name));
}

// Bitwise memory equality — max_abs_diff would treat -0.0 == 0.0 and
// miss NaNs; "bit-identical" means the raw doubles agree.
void expect_bit_identical(const Memory& a, const Memory& b,
                          const std::string& what) {
  ASSERT_EQ(a.arrays().size(), b.arrays().size()) << what;
  for (const auto& [name, arr] : a.arrays()) {
    const DenseArray& other = b.at(name);
    ASSERT_EQ(arr.data().size(), other.data().size()) << what << " " << name;
    EXPECT_EQ(std::memcmp(arr.data().data(), other.data().data(),
                          arr.data().size() * sizeof(double)),
              0)
        << what << ": array " << name << " differs between engines";
  }
}

void expect_engines_agree(const Program& p,
                          const std::map<std::string, i64>& params,
                          FillKind fill, unsigned seed,
                          const std::string& what) {
  Memory proto;
  declare_arrays(p, params, proto);
  if (fill == FillKind::kSpd)
    fill_spd(proto, seed);
  else
    randomize(proto, seed);

  Memory vm_mem = proto, walker_mem = proto;
  InterpOptions vm_opts;
  vm_opts.engine = ExecEngine::kVm;
  InterpOptions walker_opts;
  walker_opts.engine = ExecEngine::kAstWalker;
  InterpStats vm_st = interpret(p, params, vm_mem, vm_opts);
  InterpStats walker_st = interpret(p, params, walker_mem, walker_opts);

  EXPECT_EQ(vm_st.instances, walker_st.instances) << what;
  EXPECT_EQ(vm_st.loop_iterations, walker_st.loop_iterations) << what;
  EXPECT_EQ(vm_st.guard_failures, walker_st.guard_failures) << what;
  expect_bit_identical(vm_mem, walker_mem, what);
}

void differential(const Program& p, const std::string& what,
                  std::map<std::string, i64> params = {{"N", 9}}) {
  for (unsigned seed : {1u, 2u, 3u}) {
    for (FillKind fill : {FillKind::kSpd, FillKind::kRandom}) {
      expect_engines_agree(p, params, fill, seed,
                           what + " seed=" + std::to_string(seed));
    }
  }
}

TEST(VmDifferential, GalleryFig1) { differential(gallery::fig1_running_example(), "fig1"); }
TEST(VmDifferential, GallerySimplifiedCholesky) {
  differential(gallery::simplified_cholesky(), "simplified_cholesky");
}
TEST(VmDifferential, GalleryFig3PerfectNest) {
  differential(gallery::fig3_perfect_nest(), "fig3");
}
TEST(VmDifferential, GalleryAugmentation) {
  differential(gallery::augmentation_example(), "augmentation");
}
TEST(VmDifferential, GalleryCholesky) { differential(gallery::cholesky(), "cholesky"); }
TEST(VmDifferential, GalleryCholeskyDistributed) {
  differential(gallery::simplified_cholesky_distributed(), "cholesky_dist");
}
TEST(VmDifferential, GalleryLu) { differential(gallery::lu(), "lu"); }

TEST(VmDifferential, TestdataCholesky) {
  differential(load_testdata("cholesky.loop"), "cholesky.loop");
}
TEST(VmDifferential, TestdataSkewExample) {
  differential(load_testdata("skew_example.loop"), "skew_example.loop");
}
TEST(VmDifferential, TestdataStencil) {
  differential(load_testdata("stencil.loop"), "stencil.loop");
}

// Transformed programs exercise the codegen-only constructs: cover
// bounds, per-statement guards, singular loops from non-unimodular
// scaling (kDivisible guards), and skewed wavefronts.
TEST(VmDifferential, SkewedStencil) {
  Program p = load_testdata("stencil.loop");
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  IntMat m = loop_skew(layout, "J", "I", 1);
  CodegenResult res = generate_code(layout, deps, m);
  differential(res.program, "skewed stencil");
}

TEST(VmDifferential, ScaledPerfectNestReconstructionLoops) {
  // Non-unimodular scaling: codegen adds single-iteration
  // reconstruction loops whose ceil/floor bounds encode the stride
  // condition — deeper nests with multi-term bounds.
  Program p = gallery::fig3_perfect_nest();
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  IntMat m = mat_mul(loop_skew(layout, "I", "J", 1),
                     loop_scaling(layout, "J", 2));
  CodegenResult res = generate_code(layout, deps, m);
  int src_loops = 0, dst_loops = 0;
  auto count = [](const Program& prog, int& n) {
    walk(prog, [&](const Node& node, const std::vector<const Node*>&) {
      if (node.kind() == Node::Kind::kLoop) ++n;
    });
  };
  count(p, src_loops);
  count(res.program, dst_loops);
  EXPECT_GT(dst_loops, src_loops) << print_program(res.program);
  differential(res.program, "scaled+skewed fig3");
}

TEST(VmDifferential, GuardedStatements) {
  // Hand-written guards exercise the VM's kGuards path and the
  // per-access checked (non-hoisted) offset computation.
  Program p = parse_program(R"(
param N
do I = 1, N
  do J = 1, N
    if ((I + J) mod 2 == 0)
      S1: A(I, J) = A(I, J) + 1.0
    endif
    if (I - J >= 0)
      S2: B(I - J) = B(I - J) + A(I, J)
    endif
  end
end
)");
  differential(p, "guarded");
}

TEST(VmDifferential, ReversedInterchangedCholesky) {
  Program p = gallery::cholesky();
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  // Interchange the J/L pair of the update nest (legal for cholesky).
  IntMat m = loop_interchange(layout, "J", "L");
  CodegenResult res = generate_code(layout, deps, m);
  differential(res.program, "interchanged cholesky");
}

// Zero-trip loops leave arrays undeclared; both engines must treat a
// never-executed access as a non-event.
TEST(VmDifferential, ZeroTripLoops) {
  Program p = gallery::fig3_perfect_nest();
  differential(p, "fig3 N=1", {{"N", 1}});
  differential(p, "fig3 N=0", {{"N", 0}});
}

TEST(Vm, DeclareArraysShapesMatchSubscriptExtremes) {
  // stencil: U(I,J), U(I-1,J), U(I,J-1) over I,J in 1..N.
  Memory mem;
  declare_arrays(load_testdata("stencil.loop"), {{"N", 6}}, mem);
  ASSERT_TRUE(mem.has("U"));
  EXPECT_EQ(mem.at("U").lo(0), 0);
  EXPECT_EQ(mem.at("U").hi(0), 6);
  EXPECT_EQ(mem.at("U").lo(1), 0);
  EXPECT_EQ(mem.at("U").hi(1), 6);
}

TEST(Vm, ProbeRangesRespectGuards) {
  Program p = parse_program(R"(
param N
do I = 1, N
  if (I - 3 >= 0)
    S1: A(I) = 1.0
  endif
end
)");
  auto ranges = VmProgram::probe_ranges(p, {{"N", 5}});
  ASSERT_TRUE(ranges.count("A"));
  EXPECT_EQ(ranges.at("A").lo[0], 3);
  EXPECT_EQ(ranges.at("A").hi[0], 5);
}

TEST(Vm, BoundsChecksHoistedForUnguardedStatements) {
  // A(I) over I = 1..5 with A sized 1..4: the unguarded statement's
  // subscript range is checked once at loop entry, so the run fails
  // before its first write (the walker, checking per access, writes
  // A(1..4) first).
  Program p = parse_program(R"(
param N
do I = 1, N
  S1: A(I) = 1.0
end
)");
  Memory mem;
  mem.declare("A", {1}, {4});
  VmProgram vm(p, {{"N", 5}}, mem);
  EXPECT_THROW(vm.run(), Error);
  Memory walked;
  walked.declare("A", {1}, {4});
  InterpOptions opts;
  opts.engine = ExecEngine::kAstWalker;
  EXPECT_THROW(interpret(p, {{"N", 5}}, walked, opts), Error);
  for (i64 i = 1; i <= 4; ++i) {
    EXPECT_EQ(mem.at("A").get({i}), 0.0) << i;
    EXPECT_EQ(walked.at("A").get({i}), 1.0) << i;
  }
}

TEST(Vm, GuardedStatementsKeepPerAccessChecks) {
  // A guarded statement checks each access as it executes: the
  // in-range instances I = 3, 4 run, then I = 5 fails.
  Program p = parse_program(R"(
param N
do I = 1, N
  if (I - 3 >= 0)
    S1: A(I) = A(I - 1) + 1.0
  endif
end
)");
  Memory mem;
  mem.declare("A", {1}, {4});
  VmProgram vm(p, {{"N", 5}}, mem);
  EXPECT_THROW(vm.run(), Error);
  EXPECT_EQ(mem.at("A").get({2}), 0.0);
  EXPECT_EQ(mem.at("A").get({3}), 1.0);
  EXPECT_EQ(mem.at("A").get({4}), 2.0);
}

TEST(Vm, CompileSpanCarriesCodeLength) {
  // vm.compile records the compiled size, control plus scalar
  // instructions, as its code_len arg.
  Program small = parse_program(R"(
param N
do I = 1, N
  S1: A(I) = 1.0
end
)");
  Program big = gallery::cholesky();
  Memory small_mem, big_mem;
  declare_arrays(small, {{"N", 4}}, small_mem);
  declare_arrays(big, {{"N", 4}}, big_mem);
  Tracer& tr = Tracer::global();
  tr.clear();
  tr.enable();
  VmProgram small_vm(small, {{"N", 4}}, small_mem);
  VmProgram big_vm(big, {{"N", 4}}, big_mem);
  tr.disable();
  std::vector<i64> lens;
  for (const TraceEvent& ev : tr.events())
    if (std::strcmp(ev.name, "vm.compile") == 0)
      for (const TraceArg& a : ev.args)
        if (std::strcmp(a.key, "code_len") == 0)
          lens.push_back(std::stoll(a.value));
  tr.clear();
  ASSERT_EQ(lens.size(), 2u);
  // Loop enter, statement, loop next, halt; one constant load.
  EXPECT_EQ(lens[0], 5);
  EXPECT_GT(lens[1], lens[0]);
}

TEST(Vm, OutOfBoundsStillFailsLoudly) {
  // A deliberately wrong program: A sized for 1..N but read at A(I+1).
  Program p = parse_program(R"(
param N
do I = 1, N
  S1: A(I) = 1.0
end
)");
  Memory mem;
  mem.declare("A", {1}, {4});  // too small for N=5
  InterpOptions opts;
  opts.engine = ExecEngine::kVm;
  EXPECT_THROW(interpret(p, {{"N", 5}}, mem, opts), Error);
}

TEST(Vm, InstanceBudgetEnforcedIdentically) {
  Program p = gallery::cholesky();
  for (ExecEngine engine : {ExecEngine::kVm, ExecEngine::kAstWalker}) {
    Memory mem;
    declare_arrays(p, {{"N", 8}}, mem);
    InterpOptions opts;
    opts.engine = engine;
    opts.max_instances = 10;
    EXPECT_THROW(interpret(p, {{"N", 8}}, mem, opts), Error);
  }
}

TEST(Vm, ObserverForcesWalkerFallback) {
  Program p = gallery::simplified_cholesky();
  Memory mem;
  declare_arrays(p, {{"N", 4}}, mem);
  fill_spd(mem, 1);
  int events = 0;
  InterpOptions opts;
  opts.engine = ExecEngine::kVm;  // observer must override this
  opts.observer = [&](const AccessEvent&) { ++events; };
  interpret(p, {{"N", 4}}, mem, opts);
  EXPECT_GT(events, 0);
}

TEST(Vm, VerifyEquivalenceAgreesAcrossEngines) {
  Program p = load_testdata("stencil.loop");
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  IntMat m = loop_skew(layout, "J", "I", 1);
  CodegenResult res = generate_code(layout, deps, m);
  VerifyResult vm_r = verify_equivalence(p, res.program, {{"N", 12}},
                                         FillKind::kRandom, 1, ExecEngine::kVm);
  VerifyResult ast_r = verify_equivalence(p, res.program, {{"N", 12}},
                                          FillKind::kRandom, 1,
                                          ExecEngine::kAstWalker);
  EXPECT_TRUE(vm_r.equivalent);
  EXPECT_TRUE(ast_r.equivalent);
  EXPECT_EQ(vm_r.max_diff, ast_r.max_diff);
  EXPECT_EQ(vm_r.src_instances, ast_r.src_instances);
}

TEST(Vm, VerifyReferenceCapturesExecutionErrors) {
  Program src = parse_program(R"(
param N
do I = 1, N
  S1: A(I) = 1.0
end
)");
  // "Transformed" program indexing past the source's sizing.
  Program bad = parse_program(R"(
param N
do I = 1, N
  S1: A(I + 1) = 1.0
end
)");
  VerifyReference ref(src, {{"N", 5}});
  VerifyResult r = ref.check(bad);
  EXPECT_FALSE(r.equivalent);
  EXPECT_FALSE(r.error.empty());
}

// Satellite regression: absurd parameter values must raise
// OverflowError from checked arithmetic, not wrap into a bogus (or
// negative) allocation size / flat offset.
TEST(Vm, HugeParameterOverflowsLoudly) {
  Program p = parse_program(R"(
param N
do I = 1, N
  S1: A(3000000000 * I) = 1.0
end
)");
  Memory mem;
  EXPECT_THROW(declare_arrays(p, {{"N", 4000000000}}, mem), OverflowError);
}

TEST(Vm, NearOverflowExtentFailsInArraySizing) {
  // hi - lo + 1 itself overflows i64: the checked ctor must throw.
  EXPECT_THROW(DenseArray({-4611686018427387904}, {4611686018427387904}),
               OverflowError);
}

TEST(Vm, ProbeCollapseMatchesFullIteration) {
  // Leaf-collapse must not change declared shapes: compare probe
  // ranges against a brute-force walk for a skewed (negative stride)
  // subscript pattern.
  Program p = parse_program(R"(
param N
do I = 1, N
  do J = 1, N
    S1: A(2 * I - 3 * J) = A(3 * J - 2 * I) + 1.0
  end
end
)");
  auto ranges = VmProgram::probe_ranges(p, {{"N", 7}});
  ASSERT_TRUE(ranges.count("A"));
  EXPECT_EQ(ranges.at("A").lo[0], 2 * 1 - 3 * 7);
  EXPECT_EQ(ranges.at("A").hi[0], 3 * 7 - 2 * 1);
}

}  // namespace
}  // namespace inlt
