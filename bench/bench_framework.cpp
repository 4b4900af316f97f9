// C5 — §1's efficiency claim: the restricted framework keeps analysis
// cheap ("we can use standard dependence abstractions like distances
// and directions ... look for good transformations efficiently").
//
// Measures, on the paper's programs and a generated family of wider
// nests: dependence analysis, the legality test, and the completion
// procedure. Includes the padding-mode ablation from DESIGN.md
// (diagonal vs zero padding), reporting the dependence count as a
// counter.
#include <benchmark/benchmark.h>

#include <sstream>

#include "dependence/analyzer.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "transform/completion.hpp"
#include "transform/exact_legality.hpp"
#include "transform/schedule_baseline.hpp"
#include "transform/transforms.hpp"

namespace {

using namespace inlt;

Program make_wide_nest(int statements) {
  // do K { S0; do J1 { T1 }; S1; do J2 { T2 }; ... } — an imperfect
  // nest whose width scales the number of access pairs quadratically.
  std::ostringstream os;
  os << "param N\ndo K = 1, N\n";
  for (int s = 0; s < statements; ++s) {
    os << "  S" << s << ": A(K, " << s << ") = A(K - 1, " << s << ") + 1.0\n";
    os << "  do J" << s << " = K, N\n";
    os << "    T" << s << ": B(J" << s << ", " << s << ") = A(K, " << s
       << ") * 2.0\n  end\n";
  }
  os << "end\n";
  return parse_program(os.str());
}

void BM_DependenceAnalysisCholesky(benchmark::State& state) {
  Program p = gallery::cholesky();
  IvLayout layout(p);
  int ndeps = 0;
  for (auto _ : state) {
    DependenceSet ds = analyze_dependences(layout);
    ndeps = static_cast<int>(ds.deps.size());
    benchmark::DoNotOptimize(ndeps);
  }
  state.counters["deps"] = ndeps;
}
BENCHMARK(BM_DependenceAnalysisCholesky)->Unit(benchmark::kMillisecond);

void BM_DependenceAnalysisWidth(benchmark::State& state) {
  Program p = make_wide_nest(static_cast<int>(state.range(0)));
  IvLayout layout(p);
  int ndeps = 0;
  for (auto _ : state) {
    DependenceSet ds = analyze_dependences(layout);
    ndeps = static_cast<int>(ds.deps.size());
    benchmark::DoNotOptimize(ndeps);
  }
  state.counters["deps"] = ndeps;
  state.counters["stmts"] = static_cast<double>(2 * state.range(0));
}
BENCHMARK(BM_DependenceAnalysisWidth)
    ->DenseRange(1, 9, 2)
    ->Unit(benchmark::kMillisecond);

void BM_PaddingAblation(benchmark::State& state) {
  Program p = gallery::cholesky();
  IvLayout layout(p);
  PadMode pad = state.range(0) == 0 ? PadMode::kDiagonal : PadMode::kZero;
  int ndeps = 0;
  for (auto _ : state) {
    DependenceSet ds = analyze_dependences(layout, pad);
    ndeps = static_cast<int>(ds.deps.size());
    benchmark::DoNotOptimize(ndeps);
  }
  state.SetLabel(pad == PadMode::kDiagonal ? "diagonal" : "zero");
  state.counters["deps"] = ndeps;
}
BENCHMARK(BM_PaddingAblation)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_ExactLegalityCheck(benchmark::State& state) {
  // The generality/cost trade-off of §1, measured: exact ILP legality
  // re-solves integer programs per access pair, the hull test is pure
  // interval arithmetic.
  Program p = gallery::cholesky();
  IvLayout layout(p);
  IntMat m = IntMat::identity(layout.size());
  AstRecovery rec = recover_ast(layout, m);
  for (auto _ : state) {
    ExactLegalityResult r = check_legality_exact(layout, m, rec);
    benchmark::DoNotOptimize(r.violations.size());
  }
}
BENCHMARK(BM_ExactLegalityCheck)->Unit(benchmark::kMillisecond);

void BM_LegalityCheck(benchmark::State& state) {
  Program p = gallery::cholesky();
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  IntMat m = IntMat::identity(layout.size());
  for (auto _ : state) {
    LegalityResult r = check_legality(layout, deps, m);
    benchmark::DoNotOptimize(r.violations.size());
  }
}
BENCHMARK(BM_LegalityCheck)->Unit(benchmark::kMicrosecond);

void BM_CompletionCholesky(benchmark::State& state) {
  // The §6 experiment: complete the left-looking partial row.
  Program p = gallery::cholesky();
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  IntVec first(7, 0);
  first[layout.loop_position("L")] = 1;
  for (auto _ : state) {
    CompletionResult res = complete_transformation(layout, deps, {first});
    benchmark::DoNotOptimize(res.matrix.rows());
  }
}
BENCHMARK(BM_CompletionCholesky)->Unit(benchmark::kMicrosecond);

void BM_CompletionWidth(benchmark::State& state) {
  Program p = make_wide_nest(static_cast<int>(state.range(0)));
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  for (auto _ : state) {
    CompletionResult res = complete_transformation(layout, deps, {});
    benchmark::DoNotOptimize(res.matrix.rows());
  }
  state.counters["stmts"] = static_cast<double>(2 * state.range(0));
}
BENCHMARK(BM_CompletionWidth)
    ->DenseRange(1, 9, 2)
    ->Unit(benchmark::kMillisecond);

void BM_BaselineScheduleSearch(benchmark::State& state) {
  // The related-work baseline (§1): per-statement affine schedules
  // found by search over ILP validity queries. Compare with
  // BM_CompletionCholesky — the gap is the paper's whole argument.
  Program p = gallery::cholesky();
  IvLayout layout(p);
  ScheduleSearchOptions wide;
  wide.coef_max = 3;  // 1-D Cholesky schedules need slope 3 in K
  i64 queries = 0;
  for (auto _ : state) {
    ScheduleSearchStats stats;
    auto sched = find_schedule(layout, wide, &stats);
    queries = stats.candidates_checked;
    benchmark::DoNotOptimize(sched.has_value());
  }
  state.counters["ilp_queries"] = static_cast<double>(queries);
}
BENCHMARK(BM_BaselineScheduleSearch)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
