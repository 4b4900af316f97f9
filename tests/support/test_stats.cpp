// Stats registry: counters, histograms, reset semantics, text/JSON
// dumps.
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
  s.add_sample("h1", 42);
  std::string j = s.to_json();
  // Exactly two keys: counters and histograms.
  EXPECT_EQ(j.rfind("{\"counters\":{", 0), 0u) << j;
  EXPECT_NE(j.find("\"c1\":3"), std::string::npos) << j;
  EXPECT_NE(j.find("},\"histograms\":{\"h1\":"), std::string::npos) << j;
  EXPECT_EQ(j.find("\"timers\""), std::string::npos) << j;
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

TEST(Stats, HistBucketBoundaries) {
  EXPECT_EQ(hist_bucket(-5), 0);
  EXPECT_EQ(hist_bucket(0), 0);
  EXPECT_EQ(hist_bucket(1), 1);
  EXPECT_EQ(hist_bucket(2), 2);
  EXPECT_EQ(hist_bucket(3), 2);
  EXPECT_EQ(hist_bucket(4), 3);
  EXPECT_EQ(hist_bucket(1023), 10);
  EXPECT_EQ(hist_bucket(1024), 11);
  EXPECT_EQ(hist_bucket_lo(0), 0);
  EXPECT_EQ(hist_bucket_lo(1), 1);
  EXPECT_EQ(hist_bucket_lo(2), 2);
  EXPECT_EQ(hist_bucket_lo(11), 1024);
}

TEST(Stats, HistogramRecordsCountsSumsAndBuckets) {
  Stats s;
  HistogramCell& h = s.histogram("h");
  h.record(1);
  h.record(3);
  h.record(1000);
  s.add_sample("h", 0);
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.sum(), 1004);
  EXPECT_EQ(h.bucket(0), 1);   // the 0 sample
  EXPECT_EQ(h.bucket(1), 1);   // 1
  EXPECT_EQ(h.bucket(2), 1);   // 3
  EXPECT_EQ(h.bucket(10), 1);  // 1000
  // The reference is stable and reset() zeroes in place.
  s.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(&h, &s.histogram("h"));
}

TEST(Stats, HistogramAppearsInTextAndJson) {
  Stats s;
  s.add_sample("fm.sizes", 5);
  s.add_sample("fm.sizes", 6);
  std::string text = s.to_text();
  EXPECT_NE(text.find("fm.sizes"), std::string::npos) << text;
  EXPECT_NE(text.find("n=2"), std::string::npos) << text;
  std::string j = s.to_json();
  EXPECT_NE(j.find("\"histograms\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"fm.sizes\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"sum\":11"), std::string::npos) << j;
}

TEST(Stats, SnapshotDeltaSubtractsHistograms) {
  Stats s;
  s.add_sample("d.h", 4);
  StatsSnapshot before = s.snapshot();
  s.add_sample("d.h", 4);
  s.add_sample("d.h", 100);
  StatsSnapshot delta = s.snapshot() - before;
  const StatsSnapshot::HistogramValue& hv = delta.histograms.at("d.h");
  EXPECT_EQ(hv.count, 2);
  EXPECT_EQ(hv.sum, 104);
  EXPECT_EQ(hv.buckets[hist_bucket(4)], 1);
  EXPECT_EQ(hv.buckets[hist_bucket(100)], 1);
  EXPECT_DOUBLE_EQ(hv.mean(), 52.0);
}

}  // namespace
}  // namespace inlt
