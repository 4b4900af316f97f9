// Soundness and precision of the analyzer against the execution
// oracle: every realized dependence is covered by an analyzer column
// (soundness), and every all-exact analyzer column is realized
// (precision of exact distances).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/brute_force.hpp"
#include "dependence/analyzer.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"

namespace inlt {
namespace {

using testutil::covers;
using testutil::observe_dependences;
using testutil::observe_value_flow_dependences;

void check_soundness_and_precision(const Program& p, i64 n) {
  IvLayout layout(p);
  DependenceSet ds = analyze_dependences(layout);
  auto observed = observe_dependences(layout, {{"N", n}});
  ASSERT_FALSE(observed.empty());

  // Soundness: every observation is covered by a matching column.
  for (const auto& ob : observed) {
    bool found = false;
    for (const Dependence& d : ds.deps) {
      if (d.src != ob.src || d.dst != ob.dst || d.kind != ob.kind ||
          d.array != ob.array)
        continue;
      if (covers(d.vector, ob.diff)) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "uncovered " << dep_kind_name(ob.kind) << " "
                       << ob.src << " -> " << ob.dst << " diff "
                       << vec_to_string(ob.diff) << "\nanalyzer said:\n"
                       << ds.to_string();
  }

  // Precision: exact columns are witnessed.
  for (const Dependence& d : ds.deps) {
    bool all_exact = true;
    IntVec exact;
    for (const DepEntry& e : d.vector) {
      if (!e.is_exact()) {
        all_exact = false;
        break;
      }
      exact.push_back(e.lo());
    }
    if (!all_exact) continue;
    bool witnessed = false;
    for (const auto& ob : observed)
      if (ob.src == d.src && ob.dst == d.dst && ob.kind == d.kind &&
          ob.array == d.array && ob.diff == exact)
        witnessed = true;
    EXPECT_TRUE(witnessed) << "unwitnessed exact column "
                           << dep_to_string(d.vector) << " for " << d.src
                           << " -> " << d.dst;
  }
}

TEST(BruteForce, SimplifiedCholesky) {
  check_soundness_and_precision(gallery::simplified_cholesky(), 6);
}

TEST(BruteForce, FullCholesky) {
  check_soundness_and_precision(gallery::cholesky(), 5);
}

TEST(BruteForce, AugmentationExample) {
  check_soundness_and_precision(gallery::augmentation_example(), 6);
}

TEST(BruteForce, PerfectNest) {
  check_soundness_and_precision(gallery::fig3_perfect_nest(), 6);
}

TEST(BruteForce, FarDistancesAreExactAndWitnessed) {
  // Distances beyond ±8 (tools/testdata/far_distance.loop): the
  // analyzer states 10 and [10,12], and every finite end of every
  // entry is realized by an observed dependence.
  std::ifstream in(std::string(INLT_TESTDATA_DIR) + "/far_distance.loop");
  std::stringstream text;
  text << in.rdbuf();
  Program p = parse_program(text.str());
  const i64 n = 26;  // the smallest N that realizes S2's distance 12
  check_soundness_and_precision(p, n);

  IvLayout layout(p);
  DependenceSet ds = analyze_dependences(layout);
  ASSERT_EQ(ds.deps.size(), 2u);
  EXPECT_EQ(dep_to_string(ds.deps[0].vector), "[0, 0, 10, 10, 10]");
  EXPECT_EQ(dep_to_string(ds.deps[1].vector), "[0, 0, [10,12], 0, [10,12]]");
  auto observed = observe_dependences(layout, {{"N", n}});
  for (const Dependence& d : ds.deps)
    for (size_t q = 0; q < d.vector.size(); ++q) {
      const DepEntry& e = d.vector[q];
      for (bool hi : {false, true}) {
        if (hi ? e.hi_unbounded() : e.lo_unbounded()) continue;
        i64 end = hi ? e.hi() : e.lo();
        bool witnessed = false;
        for (const auto& ob : observed)
          if (ob.src == d.src && ob.dst == d.dst && ob.kind == d.kind &&
              ob.array == d.array && ob.diff[q] == end)
            witnessed = true;
        EXPECT_TRUE(witnessed) << d.src << " -> " << d.dst << " position "
                               << q << " end " << end;
      }
    }
}

TEST(BruteForce, PaperDistance1IsWitnessed) {
  // The §3 matrix prints column [1, -1, 1, 0]: the distance-1
  // realization of the S2 -> S1 flow dependence. Confirm it occurs.
  Program p = gallery::simplified_cholesky();
  IvLayout layout(p);
  auto observed = observe_dependences(layout, {{"N", 6}});
  bool found = false;
  for (const auto& ob : observed)
    if (ob.src == "S2" && ob.dst == "S1" && ob.kind == DepKind::kFlow &&
        ob.diff == IntVec{1, -1, 1, 0})
      found = true;
  EXPECT_TRUE(found);
}

// Parameterized sweep over a family of generated two-statement
// programs with shifted subscripts: analyzer must stay sound for all
// shift combinations.
class ShiftSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ShiftSweepTest, AnalyzerCoversObservations) {
  auto [a, b] = GetParam();
  std::string src = R"(
param N
do I = 1, N
  S1: X(I) = X(I - )" + std::to_string(a) +
                    R"() + 1.0
  do J = 1, N
    S2: Y(I, J) = X(I - )" + std::to_string(b) +
                    R"() * 2.0
  end
end
)";
  Program p = parse_program(src);
  check_soundness_and_precision(p, 5);
}

INSTANTIATE_TEST_SUITE_P(Shifts, ShiftSweepTest,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(0, 1, 3)));

TEST(ValueBased, PaperColumnsAreTheValueBasedRepresentatives) {
  // Interpretation check for the E1b/E9 deviations: the exact
  // distances the paper prints ([1,-1,1,0]' in §3; [1,-1,0,1,0,0,1]'
  // in §6) are precisely the value-based (last-write) dependence sets,
  // which our oracle computes by tracking each cell's reaching write.
  {
    Program p = gallery::simplified_cholesky();
    IvLayout layout(p);
    auto vb = observe_value_flow_dependences(layout, {{"N", 7}});
    for (const auto& d : vb)
      if (d.src == "S2" && d.dst == "S1") {
        EXPECT_EQ(d.diff, (IntVec{1, -1, 1, 0})) << vec_to_string(d.diff);
      }
    bool found = false;
    for (const auto& d : vb)
      if (d.src == "S2" && d.dst == "S1") found = true;
    EXPECT_TRUE(found);
  }
  {
    Program p = gallery::cholesky();
    IvLayout layout(p);
    auto vb = observe_value_flow_dependences(layout, {{"N", 6}});
    for (const auto& d : vb)
      if (d.src == "S3" && d.dst == "S1") {
        EXPECT_EQ(d.diff, (IntVec{1, -1, 0, 1, 0, 0, 1}))
            << vec_to_string(d.diff);
      }
    bool found = false;
    for (const auto& d : vb)
      if (d.src == "S3" && d.dst == "S1") found = true;
    EXPECT_TRUE(found);
  }
}

TEST(ValueBased, SubsetOfMemoryBased) {
  // Every value-based dependence is also memory-based and covered by
  // the analyzer's hulls.
  Program p = gallery::cholesky();
  IvLayout layout(p);
  DependenceSet ds = analyze_dependences(layout);
  for (const auto& d : observe_value_flow_dependences(layout, {{"N", 5}})) {
    bool covered = false;
    for (const Dependence& a : ds.deps)
      if (a.src == d.src && a.dst == d.dst && a.kind == DepKind::kFlow &&
          a.array == d.array && testutil::covers(a.vector, d.diff))
        covered = true;
    EXPECT_TRUE(covered) << d.src << "->" << d.dst << " "
                         << vec_to_string(d.diff);
  }
}

}  // namespace
}  // namespace inlt
