// Δ classification (§3): one projection onto Δ per entry, each finite
// end confirmed over the integers.
//
//  * Hand-built systems pin the fallback search: where the shadow's end
//    is not an integer value of Δ, the answer comes from the binary
//    search, bracketed by the other end or by doubling steps.
//  * The differential sweep runs the projection and the old ±8 scan
//    (tests/common/scan_reference) over every pair system of the
//    gallery, tools/testdata, perfbench/corpus, the fuzz programs and
//    every program their full-mode search generates. Entries agree
//    wherever the scan was exact inside its window; where the scan had
//    to give up, the projection is strictly tighter, and each end it
//    states beyond the window is confirmed by two feasibility tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <set>
#include <sstream>

#include "common/fuzz_programs.hpp"
#include "common/scan_reference.hpp"
#include "dependence/system.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "linalg/project.hpp"
#include "pipeline/search.hpp"
#include "support/check.hpp"

namespace inlt {
namespace {

constexpr i64 kWindow = 8;

// x − 2y = 0 over [y, x] with x <= 5 (and x >= x_lo when given). Δ = x.
ConstraintSystem even_x(std::optional<i64> x_lo) {
  ConstraintSystem cs({"y", "x"});
  LinExpr e = cs.zero_expr();
  e.coef[1] = 1;
  e.coef[0] = -2;
  cs.add_eq(e);
  cs.add_var_le(1, 5);
  if (x_lo) cs.add_var_ge(1, *x_lo);
  return cs;
}

LinExpr var_expr(const ConstraintSystem& cs, int v) {
  LinExpr e = cs.zero_expr();
  e.coef[v] = 1;
  return e;
}

TEST(ClassifyDelta, ShadowEndIsNotIntegral) {
  // Eliminating y first leaves the rational shadow 0 <= x <= 5; the
  // integer maximum is 4, found by the binary search bracketed by 0.
  ConstraintSystem cs = even_x(0);
  ConstraintSystem shadow = project_onto(cs, {1});
  ASSERT_TRUE(normalize_system(shadow));
  bool saw_five = false;
  for (const LinExpr& e : shadow.inequalities())
    if (e.coef[0] == -1 && e.constant == 5) saw_five = true;
  EXPECT_TRUE(saw_five) << shadow.to_string();

  EXPECT_EQ(classify_delta(cs, var_expr(cs, 1)), DepEntry::range(0, 4));
}

TEST(ClassifyDelta, BothEndsSearched) {
  // Shadow [1, 5]; the integer values of x are 2 and 4.
  ConstraintSystem cs = even_x(1);
  EXPECT_EQ(classify_delta(cs, var_expr(cs, 1)), DepEntry::range(2, 4));
}

TEST(ClassifyDelta, UnboundedOtherEndDoublesDown) {
  // No lower bound: the search for the upper end has no bracket but
  // the doubling steps below the shadow's 5.
  ConstraintSystem cs = even_x(std::nullopt);
  EXPECT_EQ(classify_delta(cs, var_expr(cs, 1)), DepEntry::at_most(4));
  LinExpr neg = var_expr(cs, 1);
  neg.coef[1] = -1;
  EXPECT_EQ(classify_delta(cs, neg), DepEntry::at_least(-4));
}

TEST(ClassifyDelta, FarDistancesAreExact) {
  // 10 <= x <= 100, Δ = x − 37: far outside the old ±8 window.
  ConstraintSystem cs({"x"});
  cs.add_var_ge(0, 10);
  cs.add_var_le(0, 100);
  LinExpr d = var_expr(cs, 0);
  d.constant = -37;
  EXPECT_EQ(classify_delta(cs, d), DepEntry::range(-27, 63));
  EXPECT_EQ(testutil::classify_delta_scan(cs, d, kWindow), DepEntry::star());
}

TEST(ClassifyDelta, ProjectionStaysOutOfTheInstalledCache) {
  ProjectionCache cache;
  ScopedProjectionCache install(&cache);
  ConstraintSystem cs = even_x(0);
  classify_delta(cs, var_expr(cs, 1));
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------------
// Differential sweep against the scan.

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct Source {
  std::string name;
  std::string text;  // printed; parsed per test
};

// By name: gtest's default byte dump would put the strings' heap
// pointers into the discovered ctest names.
void PrintTo(const Source& s, std::ostream* os) { *os << s.name; }

std::vector<Source> loop_files(const std::string& dir) {
  std::vector<Source> out;
  for (const auto& ent : std::filesystem::directory_iterator(dir))
    if (ent.path().extension() == ".loop")
      out.push_back({ent.path().filename().string(), read_file(ent.path())});
  std::sort(out.begin(), out.end(),
            [](const Source& a, const Source& b) { return a.name < b.name; });
  return out;
}

std::vector<Source> all_sources() {
  std::vector<Source> out;
  const std::pair<const char*, Program (*)()> gallery[] = {
      {"fig1_running_example", &gallery::fig1_running_example},
      {"simplified_cholesky", &gallery::simplified_cholesky},
      {"fig3_perfect_nest", &gallery::fig3_perfect_nest},
      {"augmentation_example", &gallery::augmentation_example},
      {"cholesky", &gallery::cholesky},
      {"simplified_cholesky_distributed",
       &gallery::simplified_cholesky_distributed},
      {"lu", &gallery::lu},
  };
  for (const auto& [name, make] : gallery)
    out.push_back({std::string("gallery_") + name, print_program(make())});
  for (Source& s : loop_files(INLT_TESTDATA_DIR))
    out.push_back({"testdata_" + s.name, std::move(s.text)});
  for (Source& s : loop_files(INLT_CORPUS_DIR))
    out.push_back({"corpus_" + s.name, std::move(s.text)});
  std::mt19937 rng(1234);
  for (int i = 0; i < 12; ++i)
    out.push_back({"fuzz_" + std::to_string(i),
                   print_program(testutil::random_program(rng))});
  // One shard per distinct program: the corpus repeats gallery nests.
  std::vector<Source> distinct;
  std::set<std::string> seen;
  for (Source& s : out) {
    s.text = print_program(parse_program(s.text));
    if (!seen.insert(s.text).second) continue;
    for (char& c : s.name)
      if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
    distinct.push_back(std::move(s));
  }
  return distinct;
}

struct Tally {
  i64 programs = 0;
  i64 entries = 0;
  i64 tighter = 0;
};

// Is the end beyond the scan's reach? (`hi` picks the upper end.)
bool scan_end_exact(const DepEntry& e, bool hi) {
  if (hi) return !e.hi_unbounded() && e.hi() >= -kWindow;
  return !e.lo_unbounded() && e.lo() <= kWindow;
}

bool contains(const DepEntry& outer, const DepEntry& inner) {
  bool lo_ok = outer.lo_unbounded() ||
               (!inner.lo_unbounded() && inner.lo() >= outer.lo());
  bool hi_ok = outer.hi_unbounded() ||
               (!inner.hi_unbounded() && inner.hi() <= outer.hi());
  return lo_ok && hi_ok;
}

bool feasible_ge(const ConstraintSystem& cs, const LinExpr& e, i64 k) {
  ConstraintSystem with = cs;
  LinExpr g = e;
  g.constant -= k;
  with.add_ge(std::move(g));
  return integer_feasible(with);
}

LinExpr negate(const LinExpr& e) {
  LinExpr r = e;
  for (i64& c : r.coef) c = -c;
  r.constant = -r.constant;
  return r;
}

// Compare one entry; `where` names it in failure messages.
void compare_entry(const ConstraintSystem& cs, const LinExpr& delta,
                   const std::string& where, Tally& t) {
  DepEntry now = classify_delta(cs, delta);
  DepEntry old = testutil::classify_delta_scan(cs, delta, kWindow);
  ++t.entries;
  if (now == old) return;
  ++t.tighter;
  std::string msg = where + ": projection " + now.to_string() + ", scan " +
                    old.to_string();
  EXPECT_TRUE(contains(old, now)) << msg;
  // An end the scan stated exactly must not move.
  if (scan_end_exact(old, true)) {
    EXPECT_FALSE(now.hi_unbounded()) << msg;
    EXPECT_EQ(now.hi(), old.hi()) << msg;
  }
  if (scan_end_exact(old, false)) {
    EXPECT_FALSE(now.lo_unbounded()) << msg;
    EXPECT_EQ(now.lo(), old.lo()) << msg;
  }
  // An end beyond the window is the true integer extreme.
  if (!now.hi_unbounded() && !scan_end_exact(old, true)) {
    EXPECT_TRUE(feasible_ge(cs, delta, now.hi())) << msg;
    EXPECT_FALSE(feasible_ge(cs, delta, now.hi() + 1)) << msg;
  }
  if (!now.lo_unbounded() && !scan_end_exact(old, false)) {
    EXPECT_TRUE(feasible_ge(cs, negate(delta), -now.lo())) << msg;
    EXPECT_FALSE(feasible_ge(cs, negate(delta), -now.lo() + 1)) << msg;
  }
}

// Every entry of every pair system of `p`; false when `p` is not a
// source program the analyzer accepts.
bool compare_program(const Program& p, PadMode pad, const std::string& name,
                     Tally& t) {
  IvLayout layout(p);
  std::vector<PairSystem> systems;
  try {
    systems = build_pair_systems(layout);
  } catch (const InvalidProgramError&) {
    return false;
  }
  ++t.programs;
  for (const PairSystem& ps : systems)
    for (int q = 0; q < layout.size(); ++q) {
      LinExpr dv = position_value_expr(ps.base, layout, ps.dst, q, false, pad);
      LinExpr sv = position_value_expr(ps.base, layout, ps.src, q, true, pad);
      compare_entry(ps.base, lin_subtract(ps.base, dv, sv),
                    name + " " + ps.src + "->" + ps.dst + " on " + ps.array +
                        " level " + std::to_string(ps.level) + " pos " +
                        std::to_string(q),
                    t);
    }
  return true;
}

class ScanDifferential : public ::testing::TestWithParam<Source> {};

TEST_P(ScanDifferential, ProjectionAgreesWithScan) {
  const Source& src = GetParam();
  Program p = parse_program(src.text);
  Tally t;
  for (PadMode pad : {PadMode::kDiagonal, PadMode::kZero})
    ASSERT_TRUE(compare_program(p, pad, src.name, t));

  // The programs full-mode search generates, over the space the
  // end-to-end benchmark searches.
  SessionOptions so;
  so.threads = 1;
  TransformSession session(p, so);
  const size_t loops = session.layout().all_loop_positions().size();
  SearchSpace space{loops > 4 ? 0 : 1, 1};
  std::vector<Program> generated;
  session.search(space, [&](const SearchHit& h) {
    if (h.result.program) generated.push_back(*h.result.program);
  });
  for (size_t i = 0; i < generated.size(); ++i)
    compare_program(generated[i], PadMode::kDiagonal,
                    src.name + " generated #" + std::to_string(i), t);
  EXPECT_GT(t.programs, 1);
  std::printf("%s: %lld programs, %lld entries, %lld tighter\n",
              src.name.c_str(), static_cast<long long>(t.programs),
              static_cast<long long>(t.entries),
              static_cast<long long>(t.tighter));
}

INSTANTIATE_TEST_SUITE_P(
    AllSources, ScanDifferential, ::testing::ValuesIn(all_sources()),
    [](const ::testing::TestParamInfo<Source>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace inlt
