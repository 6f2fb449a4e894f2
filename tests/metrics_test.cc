#include "obs/metrics.h"

#include <gtest/gtest.h>

#include "util/thread_pool.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

namespace dsig {
namespace obs {
namespace {

TEST(CounterTest, AddSetResetValue) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Set(7);
  EXPECT_EQ(c.Value(), 7u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(GaugeTest, SetAddResetValue) {
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.Value(), 2.5);
  g.Add(1.5);
  EXPECT_DOUBLE_EQ(g.Value(), 4.0);
  g.Add(-5.0);
  EXPECT_DOUBLE_EQ(g.Value(), -1.0);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
}

TEST(HistogramTest, BucketGeometryIsMonotonic) {
  // Bucket bounds must be strictly increasing, and every tracked value must
  // land in a bucket whose [lower, upper) range contains it (up to rounding).
  double prev = 0;
  for (int b = 1; b < Histogram::kNumBuckets; ++b) {
    const double lo = Histogram::BucketLowerBound(b);
    EXPECT_GE(lo, prev) << "bucket " << b;
    EXPECT_LT(lo, Histogram::BucketUpperBound(b)) << "bucket " << b;
    prev = lo;
  }
  for (double v = Histogram::kMinTracked; v < 1e8; v *= 3.7) {
    const int b = Histogram::BucketOf(v);
    EXPECT_GE(b, 1) << "value " << v;
    EXPECT_LT(b, Histogram::kNumBuckets) << "value " << v;
    EXPECT_LE(Histogram::BucketLowerBound(b), v * (1 + 1e-9)) << "value " << v;
    EXPECT_GE(Histogram::BucketUpperBound(b), v * (1 - 1e-9)) << "value " << v;
  }
  // Underflow and overflow.
  EXPECT_EQ(Histogram::BucketOf(0.0), 0);
  EXPECT_EQ(Histogram::BucketOf(Histogram::kMinTracked / 2), 0);
  EXPECT_EQ(Histogram::BucketOf(1e300), Histogram::kNumBuckets - 1);
}

TEST(HistogramTest, EmptyHistogramIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.Min(), 0.0);
  EXPECT_DOUBLE_EQ(h.Max(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
}

TEST(HistogramTest, ExactStatsOnSmallSample) {
  Histogram h;
  h.Record(1.0);
  h.Record(2.0);
  h.Record(4.0);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_DOUBLE_EQ(h.Sum(), 7.0);
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Max(), 4.0);
  // Min/max clamp the bucket interpolation, so the extreme percentiles stay
  // within one bucket (~9%) of the true extremes.
  EXPECT_NEAR(h.Percentile(0), 1.0, 0.1);
  EXPECT_NEAR(h.Percentile(100), 4.0, 0.4);
}

TEST(HistogramTest, PercentilesWithinBucketError) {
  // 1..1000 uniformly: percentile p should come out near p * 10 with at most
  // one bucket (~9%) of relative error.
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<double>(i));
  for (const double p : {50.0, 90.0, 99.0}) {
    const double want = p * 10.0;
    const double got = h.Percentile(p);
    EXPECT_NEAR(got, want, want * 0.10) << "p" << p;
  }
  EXPECT_EQ(h.Count(), 1000u);
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Max(), 1000.0);
}

TEST(HistogramTest, PercentilesAreMonotonicInP) {
  Histogram h;
  for (int i = 1; i <= 97; ++i) h.Record(std::pow(1.3, i % 13));
  double prev = 0;
  for (double p = 0; p <= 100; p += 5) {
    const double cur = h.Percentile(p);
    EXPECT_GE(cur, prev) << "p" << p;
    prev = cur;
  }
}

TEST(HistogramTest, MergeMatchesCombinedRecording) {
  Histogram a, b, combined;
  for (int i = 1; i <= 100; ++i) {
    a.Record(i * 0.5);
    combined.Record(i * 0.5);
  }
  for (int i = 1; i <= 50; ++i) {
    b.Record(i * 20.0);
    combined.Record(i * 20.0);
  }
  a.Merge(b);
  EXPECT_EQ(a.Count(), combined.Count());
  EXPECT_DOUBLE_EQ(a.Sum(), combined.Sum());
  EXPECT_DOUBLE_EQ(a.Min(), combined.Min());
  EXPECT_DOUBLE_EQ(a.Max(), combined.Max());
  for (const double p : {10.0, 50.0, 90.0, 99.0}) {
    EXPECT_DOUBLE_EQ(a.Percentile(p), combined.Percentile(p)) << "p" << p;
  }
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(3.0);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.Min(), 0.0);
  EXPECT_DOUBLE_EQ(h.Max(), 0.0);
  // Recording after a reset starts a fresh min/max window.
  h.Record(9.0);
  EXPECT_DOUBLE_EQ(h.Min(), 9.0);
  EXPECT_DOUBLE_EQ(h.Max(), 9.0);
}

TEST(ScopedTimerTest, RecordsOneSample) {
  Histogram h;
  { const ScopedTimer timer(&h); }
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_GE(h.Max(), 0.0);
}

TEST(MetricsRegistryTest, LookupsReturnStablePointers) {
  MetricsRegistry registry;
  Counter* c1 = registry.GetCounter("test.counter");
  Counter* c2 = registry.GetCounter("test.counter");
  EXPECT_EQ(c1, c2);
  Gauge* g1 = registry.GetGauge("test.gauge");
  EXPECT_EQ(g1, registry.GetGauge("test.gauge"));
  Histogram* h1 = registry.GetHistogram("test.histogram");
  EXPECT_EQ(h1, registry.GetHistogram("test.histogram"));
}

TEST(MetricsRegistryTest, ResetAllZeroesButKeepsNames) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.counter");
  Histogram* h = registry.GetHistogram("test.histogram");
  c->Add(5);
  h->Record(1.0);
  registry.ResetAll();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(h->Count(), 0u);
  // Same pointer after reset: names stay registered.
  EXPECT_EQ(registry.GetCounter("test.counter"), c);
}

TEST(MetricsRegistryTest, ToJsonHasAllSections) {
  MetricsRegistry registry;
  registry.GetCounter("reads")->Add(3);
  registry.GetGauge("pages")->Set(1.5);
  Histogram* h = registry.GetHistogram("latency_ms");
  h->Record(2.0);
  h->Record(8.0);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"reads\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"pages\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"latency_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusTextShape) {
  MetricsRegistry registry;
  registry.GetCounter("buffer.hits")->Add(12);
  registry.GetGauge("buffer.cached_pages")->Set(4);
  registry.GetHistogram("query.knn.latency_ms")->Record(1.0);
  const std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("# HELP dsig_buffer_hits"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dsig_buffer_hits counter"), std::string::npos);
  EXPECT_NE(text.find("dsig_buffer_hits 12"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dsig_buffer_cached_pages gauge"),
            std::string::npos);
  // Histograms export as real Prometheus histograms: cumulative le buckets
  // ending at +Inf, plus _sum and _count.
  EXPECT_NE(text.find("# TYPE dsig_query_knn_latency_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("dsig_query_knn_latency_ms_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("dsig_query_knn_latency_ms_count 1"),
            std::string::npos);
  EXPECT_EQ(text.find("quantile="), std::string::npos);
}

// The percentile-accuracy contract: bucket-interpolated percentiles stay
// within one log bucket (~9% relative error) of the EXACT sample quantiles,
// on distributions with very different shapes — and merging per-shard
// histograms must not cost any additional error.
class HistogramAccuracyTest : public ::testing::Test {
 protected:
  static double ExactQuantile(std::vector<double> values, double p) {
    std::sort(values.begin(), values.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
  }

  static void CheckAgainstExact(const Histogram& h,
                                const std::vector<double>& values,
                                const char* label) {
    for (const double p : {50.0, 90.0, 99.0}) {
      const double exact = ExactQuantile(values, p);
      const double approx = h.Percentile(p);
      // One 8-per-octave bucket is a factor of 2^(1/8) ~ 1.0905 wide; allow
      // one bucket of relative error plus interpolation slack.
      EXPECT_NEAR(approx, exact, exact * 0.095)
          << label << " p" << p;
    }
    EXPECT_EQ(h.Count(), values.size()) << label;
  }
};

TEST_F(HistogramAccuracyTest, UniformDistribution) {
  // Deterministic LCG; values uniform in [1, 1001).
  uint64_t state = 12345;
  std::vector<double> values;
  Histogram h;
  for (int i = 0; i < 20000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double v = 1.0 + static_cast<double>(state >> 11) * 0x1.0p-53 * 1000;
    values.push_back(v);
    h.Record(v);
  }
  CheckAgainstExact(h, values, "uniform");
}

TEST_F(HistogramAccuracyTest, LognormalDistribution) {
  // exp(N(0, 1.5)) via Box-Muller on a deterministic LCG: a heavy right
  // tail, the shape real latency distributions take.
  uint64_t state = 99991;
  auto next_u = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  std::vector<double> values;
  Histogram h;
  for (int i = 0; i < 20000; ++i) {
    const double u1 = std::max(next_u(), 1e-12);
    const double u2 = next_u();
    const double n =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
    const double v = std::exp(1.5 * n);
    values.push_back(v);
    h.Record(v);
  }
  CheckAgainstExact(h, values, "lognormal");
}

TEST_F(HistogramAccuracyTest, BimodalDistributionMergedAcrossShards) {
  // Fast path ~1ms, slow path ~100ms — recorded into 8 shards and merged,
  // the way a windowed snapshot assembles its answer. Accuracy must match a
  // single histogram's.
  uint64_t state = 777;
  auto next_u = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  std::vector<double> values;
  Histogram shards[8];
  for (int i = 0; i < 20000; ++i) {
    const double v = next_u() < 0.9 ? 1.0 + next_u() * 0.2
                                    : 100.0 + next_u() * 20.0;
    values.push_back(v);
    shards[i % 8].Record(v);
  }
  Histogram merged;
  for (const Histogram& s : shards) merged.Merge(s);
  CheckAgainstExact(merged, values, "bimodal-merged");

  // The merged histogram is bucket-for-bucket the sum of its shards.
  for (int b = 0; b < Histogram::kNumBuckets; ++b) {
    uint64_t sum = 0;
    for (const Histogram& s : shards) sum += s.BucketCount(b);
    ASSERT_EQ(merged.BucketCount(b), sum) << "bucket " << b;
  }
}

TEST(MetricsRegistryTest, GlobalIsSingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

TEST(BufferPoolMetricsTest, WiredToRegistry) {
  BufferPoolMetrics& m = GlobalBufferPoolMetrics();
  ASSERT_NE(m.hits, nullptr);
  EXPECT_EQ(m.hits, MetricsRegistry::Global().GetCounter("buffer.hits"));
  EXPECT_EQ(m.cached_pages,
            MetricsRegistry::Global().GetGauge("buffer.cached_pages"));
}

TEST(ThreadPoolMetricsTest, PublishCopiesPoolTotalsIntoRegistry) {
  ThreadPoolTotals& totals = GlobalThreadPoolTotals();
  totals.tasks_run.fetch_add(4, std::memory_order_relaxed);
  totals.parallel_fors.fetch_add(1, std::memory_order_relaxed);
  PublishThreadPoolMetrics();
  auto& registry = MetricsRegistry::Global();
  EXPECT_EQ(registry.GetCounter("pool.tasks_run")->Value(),
            totals.tasks_run.load(std::memory_order_relaxed));
  EXPECT_EQ(registry.GetCounter("pool.steals")->Value(),
            totals.steals.load(std::memory_order_relaxed));
  EXPECT_EQ(registry.GetCounter("pool.parallel_fors")->Value(),
            totals.parallel_fors.load(std::memory_order_relaxed));
  EXPECT_EQ(registry.GetCounter("pool.chunks_run")->Value(),
            totals.chunks_run.load(std::memory_order_relaxed));
}

}  // namespace
}  // namespace obs
}  // namespace dsig
