// Time-series store and sampler: ring-buffer retention and ordering,
// rollup stats, sparkline rendering, JSON well-formedness (via json_lite),
// and the sampler thread actually following a watched metric family.
#include "common/timeseries.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "json_lite.h"

namespace gs {
namespace {

json_lite::Value ParseJsonOrFail(const std::string& text) {
  json_lite::Value value;
  std::string error;
  EXPECT_TRUE(json_lite::Parse(text, &value, &error))
      << error << "\npayload:\n"
      << text.substr(0, 2000);
  return value;
}

TEST(NowMillisTest, MonotonicallyNonDecreasing) {
  uint64_t a = timeseries::NowMillis();
  uint64_t b = timeseries::NowMillis();
  EXPECT_LE(a, b);
}

TEST(SeriesTest, RetainsSamplesInOrder) {
  timeseries::Series series(8);
  for (uint64_t i = 0; i < 5; ++i) series.Record(i * 10, double(i));
  std::vector<timeseries::Sample> samples = series.Snapshot();
  ASSERT_EQ(samples.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(samples[i].t_ms, i * 10);
    EXPECT_EQ(samples[i].value, double(i));
  }
}

TEST(SeriesTest, RingOverwritesOldestOnceFull) {
  timeseries::Series series(4);
  for (uint64_t i = 0; i < 10; ++i) series.Record(i, double(i));
  std::vector<timeseries::Sample> samples = series.Snapshot();
  ASSERT_EQ(samples.size(), 4u);
  // The newest 4 samples survive, oldest first.
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(samples[i].t_ms, 6 + i);
    EXPECT_EQ(samples[i].value, double(6 + i));
  }
}

TEST(SeriesTest, StatsRollups) {
  timeseries::Series series;
  EXPECT_EQ(series.Stats().count, 0u);
  series.Record(1000, 10.0);
  series.Record(2000, 4.0);
  series.Record(3000, 16.0);
  timeseries::SeriesStats stats = series.Stats();
  EXPECT_EQ(stats.count, 3u);
  EXPECT_EQ(stats.min, 4.0);
  EXPECT_EQ(stats.max, 16.0);
  EXPECT_EQ(stats.last, 16.0);
  // (16 − 10) over 2 seconds.
  EXPECT_DOUBLE_EQ(stats.rate_per_s, 3.0);
}

TEST(SparklineTest, RendersOneGlyphPerSample) {
  std::vector<timeseries::Sample> samples;
  for (uint64_t i = 0; i < 8; ++i) {
    samples.push_back({i, double(i)});
  }
  std::string spark = timeseries::Sparkline(samples, 8);
  EXPECT_FALSE(spark.empty());
  // Block glyphs are 3 UTF-8 bytes each.
  EXPECT_EQ(spark.size(), 8u * 3u);
  // Monotone ramp: first glyph is the lowest block, last the highest.
  EXPECT_EQ(spark.substr(0, 3), "▁");
  EXPECT_EQ(spark.substr(spark.size() - 3), "█");
  EXPECT_EQ(timeseries::Sparkline({}, 8), "");
  // Width truncates to the newest samples.
  EXPECT_EQ(timeseries::Sparkline(samples, 3).size(), 3u * 3u);
}

TEST(StoreTest, JsonParsesAndCarriesSamples) {
  timeseries::Store store;
  store.Record("test_series", 100, 1.0);
  store.Record("test_series", 200, 2.5);
  store.Record("other", 100, -3.0);
  json_lite::Value doc = ParseJsonOrFail(store.ToJson());
  const json_lite::Value* series = doc.Get("series");
  ASSERT_NE(series, nullptr);
  const json_lite::Value* ts = series->Get("test_series");
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->Get("count")->number, 2.0);
  EXPECT_EQ(ts->Get("last")->number, 2.5);
  const json_lite::Value* samples = ts->Get("samples");
  ASSERT_NE(samples, nullptr);
  ASSERT_TRUE(samples->is_array());
  ASSERT_EQ(samples->array.size(), 2u);
  EXPECT_EQ(samples->array[0].array[0].number, 100.0);
  EXPECT_EQ(samples->array[0].array[1].number, 1.0);

  json_lite::Value summary = ParseJsonOrFail(store.ToSummaryJson());
  const json_lite::Value* sseries = summary.Get("series");
  ASSERT_NE(sseries, nullptr);
  const json_lite::Value* spark = sseries->Get("test_series")->Get("spark");
  ASSERT_NE(spark, nullptr);
  EXPECT_FALSE(spark->string.empty());
}

TEST(StoreTest, SeriesCapCountsDrops) {
  timeseries::Store store;
  for (size_t i = 0; i < timeseries::Store::kMaxSeries + 5; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    store.Record(name, 1, 1.0);
  }
  EXPECT_EQ(store.Names().size(), timeseries::Store::kMaxSeries);
  json_lite::Value doc = ParseJsonOrFail(store.ToJson());
  EXPECT_EQ(doc.Get("dropped_series")->number, 5.0);
}

TEST(SamplerTest, FollowsWatchedFamilies) {
  // The sampler writes into the global store; use a probe family plus a
  // labeled default-watched family to check both name forms.
  timeseries::Sampler& sampler = timeseries::Sampler::Global();
  sampler.AddWatch("gs_timeseries_test_probe");
  auto* probe =
      metrics::Registry::Global().GetCounter("gs_timeseries_test_probe");
  auto* labeled = metrics::Registry::Global().GetGauge(
      "gs_graph_epoch", {{"graph", "ts_test"}});
  probe->Increment(7);
  labeled->Set(41);
  ASSERT_TRUE(sampler.Start(5).ok());
  EXPECT_TRUE(sampler.running());
  EXPECT_FALSE(sampler.Start(5).ok());  // double start rejected
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  probe->Increment(3);
  labeled->Set(42);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  sampler.Stop();
  sampler.Stop();  // idempotent
  EXPECT_FALSE(sampler.running());

  timeseries::Series* series =
      timeseries::Store::Global().GetSeries("gs_timeseries_test_probe");
  ASSERT_NE(series, nullptr);
  timeseries::SeriesStats stats = series->Stats();
  EXPECT_GE(stats.count, 2u);
  EXPECT_EQ(stats.last, 10.0);
  // Labeled series are stored under their full key.
  timeseries::Series* labeled_series = timeseries::Store::Global().GetSeries(
      "gs_graph_epoch{graph=\"ts_test\"}");
  ASSERT_NE(labeled_series, nullptr);
  EXPECT_EQ(labeled_series->Stats().last, 42.0);
}

TEST(SamplerTest, SampleOnceWorksWithoutThread) {
  auto* probe =
      metrics::Registry::Global().GetCounter("gs_ingest_batches");
  probe->Increment();
  timeseries::Sampler::Global().SampleOnce();
  timeseries::Series* series =
      timeseries::Store::Global().GetSeries("gs_ingest_batches");
  ASSERT_NE(series, nullptr);
  EXPECT_GE(series->Stats().count, 1u);
}

}  // namespace
}  // namespace gs
