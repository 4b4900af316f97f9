// Stats registry: counters, reset semantics, text/JSON dumps.
#include "support/stats.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "support/trace.hpp"

namespace inlt {
namespace {

TEST(Stats, CountersAccumulateAndReset) {
  Stats s;
  EXPECT_EQ(s.value("a"), 0);
  s.add("a");
  s.add("a", 4);
  s.add("b", 2);
  EXPECT_EQ(s.value("a"), 5);
  EXPECT_EQ(s.value("b"), 2);
  s.reset();
  EXPECT_EQ(s.value("a"), 0);
  EXPECT_EQ(s.value("b"), 0);
}

TEST(Stats, CounterReferenceSurvivesResetAndGrowth) {
  Stats s;
  std::atomic<i64>& a = s.counter("ref.a");
  a.fetch_add(7);
  // Force map growth around it.
  for (int i = 0; i < 64; ++i) s.add("grow." + std::to_string(i));
  EXPECT_EQ(&a, &s.counter("ref.a"));
  EXPECT_EQ(s.value("ref.a"), 7);
  s.reset();
  EXPECT_EQ(a.load(), 0);  // same atomic, zeroed
  a.fetch_add(3);
  EXPECT_EQ(s.value("ref.a"), 3);
}

TEST(Stats, ConcurrentIncrementsAreExact) {
  Stats s;
  std::atomic<i64>& c = s.counter("mt");
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t)
    ts.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.fetch_add(1, std::memory_order_relaxed);
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(s.value("mt"), 40000);
}

TEST(Stats, TextDumpListsCountersAndTimers) {
  Stats s;
  s.add("fm.eliminations", 12);
  std::string text = s.to_text();
  EXPECT_NE(text.find("fm.eliminations"), std::string::npos) << text;
  EXPECT_NE(text.find("12"), std::string::npos) << text;
  // Stage wall time is a span: it is listed by the trace summary and
  // never by the Stats dump.
  Tracer& tr = Tracer::global();
  tr.clear();
  tr.enable();
  { ScopedSpan span("codegen.build", "codegen"); }
  tr.disable();
  std::string summary = tr.summary_text();
  tr.clear();
  EXPECT_NE(summary.find("codegen.build"), std::string::npos) << summary;
  EXPECT_EQ(s.to_text().find("codegen.build"), std::string::npos);
}

TEST(Stats, JsonDumpShape) {
  Stats s;
  s.add("c1", 3);
  s.add("c2", 4);
  // Exactly one key: counters.
  EXPECT_EQ(s.to_json(), "{\"counters\":{\"c1\":3,\"c2\":4}}");
}

TEST(Stats, SnapshotDeltaIsolatesOnePhase) {
  Stats s;
  s.add("phase.counter", 10);
  StatsSnapshot before = s.snapshot();
  EXPECT_EQ(before.counter("phase.counter"), 10);
  EXPECT_EQ(before.counter("never.touched"), 0);

  s.add("phase.counter", 7);
  s.add("phase.fresh", 3);  // key born after the base snapshot

  StatsSnapshot delta = s.snapshot() - before;
  EXPECT_EQ(delta.counter("phase.counter"), 7);
  EXPECT_EQ(delta.counter("phase.fresh"), 3);
  EXPECT_EQ(delta.counter("never.touched"), 0);
}

TEST(Stats, SnapshotUnaffectedByLaterMutation) {
  Stats s;
  s.add("snap.k", 1);
  StatsSnapshot snap = s.snapshot();
  s.add("snap.k", 100);
  s.reset();
  EXPECT_EQ(snap.counter("snap.k"), 1);  // a copy, not a view
}

}  // namespace
}  // namespace inlt
