#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "obs/json.h"
#include "util/thread_pool.h"

namespace dsig {
namespace obs {

uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Gauge::Add(double delta) {
  double current = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

int Histogram::BucketOf(double value) {
  if (!(value >= kMinTracked)) return 0;  // also catches NaN and negatives
  const double octaves = std::log2(value / kMinTracked);
  const int index =
      1 + static_cast<int>(octaves * static_cast<double>(kBucketsPerOctave));
  return std::min(index, kNumBuckets - 1);
}

double Histogram::BucketLowerBound(int bucket) {
  if (bucket <= 0) return 0.0;
  return kMinTracked *
         std::exp2(static_cast<double>(bucket - 1) /
                   static_cast<double>(kBucketsPerOctave));
}

double Histogram::BucketUpperBound(int bucket) {
  if (bucket <= 0) return kMinTracked;
  return kMinTracked * std::exp2(static_cast<double>(bucket) /
                                 static_cast<double>(kBucketsPerOctave));
}

namespace {

// Relaxed CAS update keeping the extremum; first sample always wins because
// the caller checks count beforehand.
void UpdateMin(std::atomic<double>* slot, double value, bool first) {
  double current = slot->load(std::memory_order_relaxed);
  if (first) {
    // Racy "first" from two threads resolves through the CAS loop below
    // because both then fall through to the min comparison.
    slot->compare_exchange_strong(current, value, std::memory_order_relaxed);
    current = slot->load(std::memory_order_relaxed);
  }
  while (value < current && !slot->compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

void UpdateMax(std::atomic<double>* slot, double value, bool first) {
  double current = slot->load(std::memory_order_relaxed);
  if (first) {
    slot->compare_exchange_strong(current, value, std::memory_order_relaxed);
    current = slot->load(std::memory_order_relaxed);
  }
  while (value > current && !slot->compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

void AtomicAddDouble(std::atomic<double>* slot, double delta) {
  double current = slot->load(std::memory_order_relaxed);
  while (!slot->compare_exchange_weak(current, current + delta,
                                      std::memory_order_relaxed)) {
  }
}

}  // namespace

void Histogram::Record(double value) {
  if (std::isnan(value)) return;
  const uint64_t prior = count_.fetch_add(1, std::memory_order_relaxed);
  buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&sum_, value);
  UpdateMin(&min_, value, prior == 0);
  UpdateMax(&max_, value, prior == 0);
}

void Histogram::Merge(const Histogram& other) {
  const uint64_t other_count = other.count_.load(std::memory_order_relaxed);
  if (other_count == 0) return;
  const uint64_t prior = count_.fetch_add(other_count,
                                          std::memory_order_relaxed);
  for (int b = 0; b < kNumBuckets; ++b) {
    const uint64_t n = other.buckets_[b].load(std::memory_order_relaxed);
    if (n != 0) buckets_[b].fetch_add(n, std::memory_order_relaxed);
  }
  AtomicAddDouble(&sum_, other.sum_.load(std::memory_order_relaxed));
  UpdateMin(&min_, other.min_.load(std::memory_order_relaxed), prior == 0);
  UpdateMax(&max_, other.max_.load(std::memory_order_relaxed), prior == 0);
}

void Histogram::Reset() {
  for (int b = 0; b < kNumBuckets; ++b) {
    buckets_[b].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

double Histogram::Min() const {
  return Count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::Max() const {
  return Count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::Percentile(double p) const {
  const uint64_t count = Count();
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the requested sample, 1-based; p50 of 4 samples is the 2nd.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(p / 100.0 *
                                         static_cast<double>(count))));
  uint64_t cumulative = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    cumulative += buckets_[b].load(std::memory_order_relaxed);
    if (cumulative >= rank) {
      // Geometric midpoint of the bucket, clamped to the observed range so
      // single-bucket histograms report the true extremes.
      double estimate;
      if (b == 0) {
        estimate = Min();
      } else if (b == kNumBuckets - 1) {
        estimate = Max();
      } else {
        estimate = std::sqrt(BucketLowerBound(b) * BucketUpperBound(b));
      }
      return std::clamp(estimate, Min(), Max());
    }
  }
  return Max();
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.count = Count();
  snap.sum = Sum();
  snap.min = Min();
  snap.max = Max();
  snap.p50 = Percentile(50);
  snap.p90 = Percentile(90);
  snap.p99 = Percentile(99);
  return snap;
}

ScopedTimer::ScopedTimer(Histogram* histogram)
    : histogram_(histogram), start_ns_(MonotonicNanos()) {}

ScopedTimer::~ScopedTimer() {
  histogram_->Record(static_cast<double>(MonotonicNanos() - start_ns_) * 1e-6);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

namespace {

void WriteSnapshotJson(JsonWriter* w, const HistogramSnapshot& s) {
  w->Field("count", s.count);
  w->Field("sum", s.sum);
  w->Field("mean", s.Mean());
  w->Field("min", s.min);
  w->Field("max", s.max);
  w->Field("p50", s.p50);
  w->Field("p90", s.p90);
  w->Field("p99", s.p99);
}

}  // namespace

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w;
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (const auto& [name, counter] : counters_) {
    w.Field(name, counter->Value());
  }
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& [name, gauge] : gauges_) {
    w.Field(name, gauge->Value());
  }
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const auto& [name, histogram] : histograms_) {
    w.Key(name).BeginObject();
    WriteSnapshotJson(&w, histogram->Snapshot());
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.Take();
}

namespace {

std::string PrometheusName(const std::string& name) {
  std::string out = "dsig_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

// HELP text: no newlines allowed; backslash must be escaped.
std::string PrometheusHelpText(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void AppendFamilyHeader(std::string* out, const std::string& prom,
                        const std::string& source_name, const char* type) {
  *out += "# HELP " + prom + " dsig metric " +
          PrometheusHelpText(source_name) + "\n";
  *out += "# TYPE " + prom + " " + type + "\n";
}

// One histogram family: cumulative le buckets at octave upper bounds (only
// where the cumulative count advances, plus +Inf), then _sum and _count.
// Scrapers require the bucket counts to be monotone and the +Inf bucket to
// equal _count; the conformance test pins both.
void AppendHistogramFamily(std::string* out, const std::string& prom,
                           const std::string& source_name,
                           const Histogram& histogram) {
  AppendFamilyHeader(out, prom, source_name, "histogram");
  uint64_t cumulative = 0;
  uint64_t last_emitted = 0;
  bool emitted_any = false;
  // Walk octaves; bucket 0 (underflow) folds into the first le line.
  uint64_t octave_pending =
      0;  // samples accumulated since the last emitted le
  for (int octave = 0; octave <= Histogram::kOctaves; ++octave) {
    if (octave == 0) {
      octave_pending += histogram.BucketCount(0);
    } else {
      const int first =
          1 + (octave - 1) * Histogram::kBucketsPerOctave;
      for (int b = first; b < first + Histogram::kBucketsPerOctave; ++b) {
        octave_pending += histogram.BucketCount(b);
      }
    }
    cumulative += octave_pending;
    octave_pending = 0;
    const bool advanced = cumulative != last_emitted;
    if (advanced || (!emitted_any && octave == Histogram::kOctaves)) {
      const double le =
          octave == 0 ? Histogram::kMinTracked
                      : Histogram::BucketUpperBound(
                            octave * Histogram::kBucketsPerOctave);
      *out += prom + "_bucket{le=\"" + JsonNumber(le) + "\"} " +
              std::to_string(cumulative) + "\n";
      last_emitted = cumulative;
      emitted_any = true;
    }
  }
  // The overflow bucket (kNumBuckets - 1) and anything else lands in +Inf.
  *out += prom + "_bucket{le=\"+Inf\"} " +
          std::to_string(histogram.Count()) + "\n";
  *out += prom + "_sum " + JsonNumber(histogram.Sum()) + "\n";
  *out += prom + "_count " + std::to_string(histogram.Count()) + "\n";
}

}  // namespace

std::string MetricsRegistry::ToPrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    const std::string prom = PrometheusName(name);
    AppendFamilyHeader(&out, prom, name, "counter");
    out += prom + " " + std::to_string(counter->Value()) + "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    const std::string prom = PrometheusName(name);
    AppendFamilyHeader(&out, prom, name, "gauge");
    out += prom + " " + JsonNumber(gauge->Value()) + "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    AppendHistogramFamily(&out, PrometheusName(name), name, *histogram);
  }
  return out;
}

void PublishThreadPoolMetrics() {
  const ThreadPoolTotals& totals = GlobalThreadPoolTotals();
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("pool.tasks_run")
      ->Set(totals.tasks_run.load(std::memory_order_relaxed));
  registry.GetCounter("pool.steals")
      ->Set(totals.steals.load(std::memory_order_relaxed));
  registry.GetCounter("pool.parallel_fors")
      ->Set(totals.parallel_fors.load(std::memory_order_relaxed));
  registry.GetCounter("pool.chunks_run")
      ->Set(totals.chunks_run.load(std::memory_order_relaxed));
}

BufferPoolMetrics& GlobalBufferPoolMetrics() {
  static BufferPoolMetrics* metrics = [] {
    auto& registry = MetricsRegistry::Global();
    auto* m = new BufferPoolMetrics;
    m->hits = registry.GetCounter("buffer.hits");
    m->misses = registry.GetCounter("buffer.misses");
    m->evictions = registry.GetCounter("buffer.evictions");
    m->failed_reads = registry.GetCounter("buffer.failed_reads");
    m->cached_pages = registry.GetGauge("buffer.cached_pages");
    m->capacity_pages = registry.GetGauge("buffer.capacity_pages");
    return m;
  }();
  return *metrics;
}

}  // namespace obs
}  // namespace dsig
