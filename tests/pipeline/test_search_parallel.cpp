// The deferred evaluation stage of full-mode search() runs candidates
// on worker threads; the merged result must be bit-identical to a
// single-threaded run — same hits in the same order, same stats, same
// rejection provenance — with or without semantic verification.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "ir/gallery.hpp"
#include "ir/printer.hpp"
#include "pipeline/search.hpp"
#include "support/trace.hpp"

namespace inlt {
namespace {

SearchResult run_search(Program (*make)(), int threads,
                        const SearchSpace& space,
                        const SearchOptions& sopts) {
  SessionOptions opts;
  opts.threads = threads;
  TransformSession session(make(), opts);
  PermutationSkewGenerator gen(session.layout(), space);
  return session.search(gen, sopts);
}

void expect_identical(const SearchResult& a, const SearchResult& b) {
  EXPECT_EQ(a.stats.candidates_total, b.stats.candidates_total);
  EXPECT_EQ(a.stats.evaluated, b.stats.evaluated);
  EXPECT_EQ(a.stats.legal, b.stats.legal);
  EXPECT_EQ(a.stats.illegal_evaluated, b.stats.illegal_evaluated);
  EXPECT_EQ(a.stats.pruned_candidates, b.stats.pruned_candidates);
  EXPECT_EQ(a.stats.pruned_subtrees, b.stats.pruned_subtrees);
  EXPECT_EQ(a.stats.verified, b.stats.verified);
  EXPECT_EQ(a.stats.verify_failed, b.stats.verify_failed);
  EXPECT_EQ(a.rejections.by_dependence, b.rejections.by_dependence);
  EXPECT_EQ(a.rejections.by_row, b.rejections.by_row);
  EXPECT_EQ(a.rejections.rejected, b.rejections.rejected);
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (size_t i = 0; i < a.hits.size(); ++i) {
    EXPECT_EQ(a.hits[i].index, b.hits[i].index);
    EXPECT_TRUE(a.hits[i].matrix == b.hits[i].matrix);
    ASSERT_EQ(a.hits[i].result.program.has_value(),
              b.hits[i].result.program.has_value());
    if (a.hits[i].result.program.has_value()) {
      EXPECT_EQ(print_program(*a.hits[i].result.program),
                print_program(*b.hits[i].result.program));
    }
    ASSERT_EQ(a.hits[i].result.verify.has_value(),
              b.hits[i].result.verify.has_value());
    if (a.hits[i].result.verify.has_value()) {
      EXPECT_EQ(a.hits[i].result.verify->equivalent,
                b.hits[i].result.verify->equivalent);
      EXPECT_EQ(a.hits[i].result.verify->max_diff,
                b.hits[i].result.verify->max_diff);
    }
  }
}

TEST(SearchParallel, FourThreadsMatchSequential) {
  SearchSpace space{/*skew_bound=*/1, /*skew_depth=*/1};
  SearchOptions sopts;
  SearchResult seq = run_search(&gallery::cholesky, 1, space, sopts);
  SearchResult par = run_search(&gallery::cholesky, 4, space, sopts);
  EXPECT_GT(seq.stats.legal, 0);
  expect_identical(seq, par);
}

TEST(SearchParallel, VerificationRunsOnWorkerThreads) {
  SearchSpace space{};
  SearchOptions sopts;
  sopts.verify_params = {{"N", 6}};
  SearchResult seq = run_search(&gallery::lu, 1, space, sopts);
  SearchResult par = run_search(&gallery::lu, 4, space, sopts);
  EXPECT_GT(seq.stats.legal, 0);
  // Every legal candidate was verified and none disagreed with the
  // source: legality and codegen are sound, so a verify failure here
  // means the engines diverged.
  EXPECT_EQ(seq.stats.verified, seq.stats.legal);
  EXPECT_EQ(seq.stats.verify_failed, 0);
  for (const SearchHit& h : seq.hits) {
    ASSERT_TRUE(h.result.verify.has_value());
    EXPECT_TRUE(h.result.verify->equivalent) << h.result.verify->to_string();
  }
  expect_identical(seq, par);
}

TEST(SearchParallel, SinkStreamsInAscendingIndexOrder) {
  SearchSpace space{/*skew_bound=*/1, /*skew_depth=*/1};
  SessionOptions opts;
  opts.threads = 4;
  TransformSession session(gallery::simplified_cholesky(), opts);
  PermutationSkewGenerator gen(session.layout(), space);
  SearchOptions sopts;
  std::vector<i64> seen;
  sopts.sink = [&](const SearchHit& h) { seen.push_back(h.index); };
  SearchResult res = session.search(gen, sopts);
  ASSERT_EQ(seen.size(), res.hits.size());
  for (size_t i = 0; i < res.hits.size(); ++i)
    EXPECT_EQ(seen[i], res.hits[i].index);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

TEST(SearchParallel, ExecThreadsDoNotChangeSearchResults) {
  // Verification through the partitioned exec engine (exec_threads > 1)
  // must leave hits, verdicts and stats bit-identical: parallel
  // execution is memcmp-identical to serial, so the search cannot see
  // the difference. Search workers and exec workers also compose here
  // (each search worker's verification takes a turn on the exec pool).
  SearchSpace space{};
  SearchOptions serial;
  serial.verify_params = {{"N", 8}};
  SearchOptions threaded = serial;
  threaded.exec_threads = 2;
  SearchResult a = run_search(&gallery::cholesky, 2, space, serial);
  SearchResult b = run_search(&gallery::cholesky, 2, space, threaded);
  EXPECT_GT(a.stats.legal, 0);
  EXPECT_EQ(a.stats.verified, a.stats.legal);
  EXPECT_EQ(b.stats.verify_failed, 0);
  expect_identical(a, b);
}

TEST(SearchParallel, ExecThreadsDoNotChangeRanking) {
  // Rank mode with exec_threads == 1 must order exactly as before the
  // parallel-work term existed (effective == total); the same search
  // at exec_threads > 1 may reorder but must score the same matrices
  // legal and fill the parallel fields.
  SearchSpace space{/*skew_bound=*/1, /*skew_depth=*/1};
  SearchOptions sopts;
  sopts.mode = SearchMode::kLegalityOnly;
  sopts.cost = true;
  SearchOptions threaded = sopts;
  threaded.exec_threads = 4;
  SearchResult one = run_search(&gallery::lu, 2, space, sopts);
  SearchResult four = run_search(&gallery::lu, 2, space, threaded);
  ASSERT_EQ(one.hits.size(), four.hits.size());
  for (size_t i = 0; i < one.hits.size(); ++i) {
    EXPECT_EQ(one.hits[i].index, four.hits[i].index);
    ASSERT_TRUE(one.hits[i].cost.has_value());
    ASSERT_TRUE(four.hits[i].cost.has_value());
    const CostEstimate& c1 = *one.hits[i].cost;
    const CostEstimate& c4 = *four.hits[i].cost;
    EXPECT_DOUBLE_EQ(c1.total_lines, c4.total_lines);
    // exec_threads == 1: the parallel term is a no-op on the score.
    EXPECT_DOUBLE_EQ(c1.effective_lines, c1.total_lines);
    // exec_threads == 4: any candidate with a partition scores below
    // its serial estimate, never above.
    EXPECT_LE(c4.effective_lines, c4.total_lines);
    if (!c4.partition.empty() && c4.parallel_fraction > 0) {
      EXPECT_LT(c4.effective_lines, c4.total_lines);
    }
    EXPECT_EQ(c1.partition, c4.partition);
  }
}

TEST(SearchParallel, LegalityOnlyModeUnaffectedByThreadCount) {
  SearchOptions sopts;
  sopts.mode = SearchMode::kLegalityOnly;
  SearchResult seq = run_search(&gallery::cholesky, 1, SearchSpace{}, sopts);
  SearchResult par = run_search(&gallery::cholesky, 4, SearchSpace{}, sopts);
  EXPECT_EQ(seq.stats.legal, par.stats.legal);
  EXPECT_EQ(seq.stats.pruned_candidates, par.stats.pruned_candidates);
  ASSERT_EQ(seq.hits.size(), par.hits.size());
  for (size_t i = 0; i < seq.hits.size(); ++i)
    EXPECT_EQ(seq.hits[i].index, par.hits[i].index);
}

TEST(SearchParallel, TracingChangesNothingAndTimesEveryStage) {
  // Spans are the only stage timer: a traced search must return
  // exactly what an untraced one does, and its trace must carry a span
  // for every stage of the run, the codegen phases nested inside
  // codegen.generate. Verification runs serially (vm.run) at one exec
  // thread and partitioned (vm.run_parallel) at two.
  const std::set<std::string> phases = {"codegen.recover_ast",
                                        "codegen.legality", "codegen.plan",
                                        "codegen.build"};
  Tracer& tracer = Tracer::global();
  std::set<std::string> names;
  for (int exec_threads : {1, 2}) {
    SearchOptions sopts;
    sopts.cost = true;
    sopts.tile = true;
    sopts.verify_params = {{"N", 8}};
    sopts.exec_threads = exec_threads;
    tracer.disable();
    SearchResult untraced = run_search(&gallery::cholesky, 2, {}, sopts);
    tracer.clear();
    tracer.enable();
    SearchResult traced = run_search(&gallery::cholesky, 2, {}, sopts);
    tracer.disable();
    const std::vector<TraceEvent> events = tracer.events();
    tracer.clear();

    EXPECT_GT(untraced.stats.verified, 0);
    EXPECT_EQ(untraced.stats.verify_failed, 0);
    expect_identical(untraced, traced);
    for (size_t i = 0; i < untraced.hits.size(); ++i) {
      ASSERT_EQ(untraced.hits[i].cost.has_value(),
                traced.hits[i].cost.has_value());
      if (untraced.hits[i].cost.has_value()) {
        EXPECT_EQ(untraced.hits[i].cost->total_lines,
                  traced.hits[i].cost->total_lines);
      }
    }

    for (const TraceEvent& e : events) {
      if (e.ph != 'X') continue;
      names.insert(e.name);
      if (!phases.count(e.name)) continue;
      // A codegen phase lies inside a codegen.generate span of its
      // own thread.
      bool nested = false;
      for (const TraceEvent& g : events)
        nested |= g.ph == 'X' && std::string(g.name) == "codegen.generate" &&
                  g.tid == e.tid && g.start_ns <= e.start_ns &&
                  e.start_ns + e.dur_ns <= g.start_ns + g.dur_ns;
      EXPECT_TRUE(nested) << e.name << " outside codegen.generate";
    }
  }
  for (const char* want :
       {"session.analyze", "model.estimate", "codegen.generate",
        "codegen.recover_ast", "codegen.legality", "codegen.plan",
        "codegen.build", "exec.verify.check", "vm.compile", "vm.probe",
        "vm.run", "vm.run_parallel"})
    EXPECT_TRUE(names.count(want)) << "no " << want << " span";
}

}  // namespace
}  // namespace inlt
