#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/phase.h"

namespace sehc {
namespace {

TEST(LogHistogramTest, BucketsAndQuantiles) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(1000);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1006u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1000u);
  // Buckets: 0 -> b0, 1 -> b1, [2,3] -> b2, 1000 -> b10 (512..1023).
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 2u);
  EXPECT_EQ(h.buckets()[10], 1u);
  // Nearest rank: ceil(0.5 * 5) = 3 -> third value -> bucket 2's floor.
  EXPECT_EQ(h.quantile(0.5), 2u);
  EXPECT_EQ(h.quantile(1.0), LogHistogram::bucket_floor(10));
  EXPECT_EQ(LogHistogram::bucket_floor(10), 512u);
}

TEST(LogHistogramTest, MergeMatchesSingleRecorder) {
  const std::vector<std::uint64_t> values{0, 1, 5, 5, 17, 300, 4096, 70000};
  LogHistogram whole;
  LogHistogram a, b;
  for (std::size_t i = 0; i < values.size(); ++i) {
    whole.record(values[i]);
    (i % 2 == 0 ? a : b).record(values[i]);
  }
  LogHistogram merged;
  merged.merge(b);  // order must not matter
  merged.merge(a);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_EQ(merged.sum(), whole.sum());
  EXPECT_EQ(merged.min(), whole.min());
  EXPECT_EQ(merged.max(), whole.max());
  EXPECT_EQ(merged.buckets(), whole.buckets());
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(merged.quantile(q), whole.quantile(q));
  }
}

TEST(MetricsRegistryTest, EmptySnapshot) {
  MetricsRegistry registry;
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_TRUE(snap.empty());
  EXPECT_EQ(snap.canonical(), "");
}

TEST(MetricsRegistryTest, CountersGaugesHistograms) {
  MetricsRegistry registry;
  registry.counter_add("b/two", 2);
  registry.counter_add("a/one");
  registry.counter_add("b/two", 3);
  registry.gauge_max("depth", 4);
  registry.gauge_max("depth", 2);  // below the high-water mark
  registry.hist_record("sizes", 8, 3);
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  // Canonical order is name-sorted whatever the recording order.
  EXPECT_EQ(snap.counters[0].first, "a/one");
  EXPECT_EQ(snap.counters[0].second, 1u);
  EXPECT_EQ(snap.counters[1].first, "b/two");
  EXPECT_EQ(snap.counters[1].second, 5u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 4u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count(), 3u);
  EXPECT_EQ(snap.histograms[0].second.sum(), 24u);
}

/// The determinism contract: the same logical work, decomposed across any
/// number of threads, merges to a byte-identical canonical snapshot.
TEST(MetricsRegistryTest, ThreadShardMergeIsDeterministic) {
  constexpr std::size_t kItems = 240;
  const auto record_item = [](MetricsRegistry& r, std::size_t i) {
    r.counter_add("items", 1);
    r.counter_add("weight", i % 7);
    r.gauge_max("largest", i);
    r.hist_record("sizes", i % 33);
    r.phase_record("work/item", 1, i % 5, 0.001);
    SpanScope span(&r, "span");
    span.add_rounds(i % 3);
  };

  MetricsRegistry serial;
  for (std::size_t i = 0; i < kItems; ++i) record_item(serial, i);

  MetricsRegistry sharded;
  constexpr std::size_t kThreads = 8;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Interleaved partition: thread t takes items t, t+K, t+2K, ...
      for (std::size_t i = t; i < kItems; i += kThreads) {
        record_item(sharded, i);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(sharded.snapshot().canonical(), serial.snapshot().canonical());
}

TEST(SpanScopeTest, NestedSpansKeyBySlashJoinedPath) {
  MetricsRegistry registry;
  {
    SpanScope outer(&registry, "cell");
    {
      SpanScope inner(&registry, "engine:SE");
      inner.add_rounds(12);
    }
    {
      SpanScope inner(&registry, "engine:SE");  // re-entered phase
      inner.add_rounds(3);
    }
  }
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.phases.size(), 2u);
  EXPECT_EQ(snap.phases[0].first, "cell");
  EXPECT_EQ(snap.phases[0].second.visits, 1u);
  EXPECT_EQ(snap.phases[1].first, "cell/engine:SE");
  EXPECT_EQ(snap.phases[1].second.visits, 2u);
  EXPECT_EQ(snap.phases[1].second.rounds, 15u);
}

TEST(SpanScopeTest, ExceptionUnwindingStillClosesSpans) {
  MetricsRegistry registry;
  try {
    SpanScope outer(&registry, "cell");
    SpanScope inner(&registry, "engine:GA");
    throw std::runtime_error("cell fault");
  } catch (const std::runtime_error&) {
  }
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.phases.size(), 2u);
  EXPECT_EQ(snap.phases[0].first, "cell");
  EXPECT_EQ(snap.phases[1].first, "cell/engine:GA");
  EXPECT_EQ(snap.phases[1].second.visits, 1u);
}

TEST(SpanScopeTest, NullRegistryIsNoOp) {
  SpanScope span(nullptr, "anything");
  span.add_rounds(5);  // must not crash
}

TEST(AmbientMetricsTest, ScopeInstallsAndRestores) {
  EXPECT_EQ(ambient_metrics(), nullptr);
  MetricsRegistry outer_registry;
  {
    MetricsScope outer(&outer_registry);
    EXPECT_EQ(ambient_metrics(), &outer_registry);
    MetricsRegistry inner_registry;
    {
      MetricsScope inner(&inner_registry);
      EXPECT_EQ(ambient_metrics(), &inner_registry);
    }
    EXPECT_EQ(ambient_metrics(), &outer_registry);
  }
  EXPECT_EQ(ambient_metrics(), nullptr);
}

TEST(MetricsSnapshotTest, JsonShapeAndEscaping) {
  MetricsRegistry registry;
  registry.counter_add("a\"b", 1);
  registry.hist_record("h", 7);
  registry.phase_record("p", 1, 2, 0.0015);
  const std::string json = registry.snapshot().to_json();
  EXPECT_NE(json.find("\"a\\\"b\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"p50\": 4"), std::string::npos);  // bucket floor of 7
  EXPECT_NE(json.find("\"ms\": 1.500"), std::string::npos);
}

}  // namespace
}  // namespace sehc
