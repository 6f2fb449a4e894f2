// Process-wide metrics: named counters, gauges, and log-bucketed latency
// histograms with Prometheus-text and JSON exporters.
//
// The paper's §6 evaluation decomposes query cost into reads, backtracking
// steps, comparisons, and page I/O; this registry is where those numbers
// accumulate so benches, the `dsig_tool stats` subcommand, and per-query
// traces all read from one source. Design constraints:
//
//  - Recording is lock-free: counters and histogram buckets are relaxed
//    atomics, so instrumenting a hot loop costs one atomic add. The registry
//    mutex is only taken on name lookup — call sites cache the returned
//    pointer (metrics live for the process lifetime, pointers are stable).
//  - Histograms are log-bucketed (8 buckets per octave, ~9% relative width)
//    over 1e-6 .. 1e9, so one shape covers microsecond spans and multi-minute
//    builds. Percentiles come from bucket interpolation and are mergeable
//    across histogram instances — benches aggregate per-thread or per-phase
//    histograms without losing tail fidelity.
#ifndef DSIG_OBS_METRICS_H_
#define DSIG_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace dsig {
namespace obs {

class Counter {
 public:
  void Add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  // Overwrites the value; used when publishing an externally-kept total
  // (e.g. the legacy OpCounters globals) into the registry.
  void Set(uint64_t value) { value_.store(value, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta);
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Point-in-time summary of a histogram; plain data, freely copyable.
struct HistogramSnapshot {
  uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;

  double Mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
};

// Log-bucketed histogram. Record() is wait-free (one log2, three relaxed
// atomic ops, plus CAS loops for min/max that almost never retry).
// Percentiles are exact to within one bucket (~9% relative error) and are
// additionally clamped to the observed [min, max].
class Histogram {
 public:
  // 8 buckets per octave over [kMinTracked, kMinTracked * 2^kOctaves), plus
  // an underflow bucket 0 (values below kMinTracked, including zero) and a
  // final overflow bucket.
  static constexpr double kMinTracked = 1e-6;
  static constexpr int kBucketsPerOctave = 8;
  static constexpr int kOctaves = 50;  // 1e-6 .. ~1.1e9
  static constexpr int kNumBuckets = 2 + kOctaves * kBucketsPerOctave;

  void Record(double value);
  void Merge(const Histogram& other);
  void Reset();

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Min() const;  // 0 when empty
  double Max() const;  // 0 when empty

  // p in [0, 100]. Returns 0 on an empty histogram.
  double Percentile(double p) const;

  HistogramSnapshot Snapshot() const;

  // Bucket geometry, exposed for tests.
  static int BucketOf(double value);
  static double BucketLowerBound(int bucket);
  static double BucketUpperBound(int bucket);

  // Raw per-bucket count, for exporters and tests.
  uint64_t BucketCount(int bucket) const {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};  // valid only when count_ > 0
  std::atomic<double> max_{0.0};
};

// Records wall-clock milliseconds into a histogram on destruction. The RAII
// shape matters: instrumented functions in this codebase return through
// Status macros with many exit paths.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram);
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer();

 private:
  Histogram* histogram_;
  uint64_t start_ns_;
};

// Name -> metric maps. Metrics are created on first lookup and never
// destroyed (stable pointers); lookups are mutex-guarded, recording is not.
// Names use dotted lowercase ("buffer.hits", "query.knn.latency_ms").
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  // Zeroes every registered metric (names stay registered). Benches and the
  // stats subcommand use this to measure a clean window.
  void ResetAll();

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
  // mean, min, max, p50, p90, p99}}}, keys sorted.
  std::string ToJson() const;

  // Prometheus text exposition, one HELP + TYPE block per family:
  // counters/gauges as their native types, histograms as real histogram
  // families (cumulative le="..." buckets at octave boundaries, _sum,
  // _count). Dots in names become underscores and everything is prefixed
  // "dsig_".
  std::string ToPrometheusText() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// Plain point-in-time copy of the buffer-pool counters; what traces store
// and diff.
struct BufferPoolTotalsSnapshot {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t failed_reads = 0;
};

// Copies the process-wide ThreadPoolTotals (util/thread_pool.h) into the
// registry as "pool.*" counters. util sits below obs, so the pool keeps its
// own totals and cannot count into the registry directly.
void PublishThreadPoolMetrics();

// Registry handles for the process-wide buffer-pool metrics. Every
// BufferManager charges the "buffer.*" counters on its Access path (one
// relaxed add per page access: batch query workers on different threads
// share one pool), and query traces fold them in as deltas. The gauges
// track current state, set on insert/clear rather than per access.
struct BufferPoolMetrics {
  Counter* hits;
  Counter* misses;
  Counter* evictions;
  Counter* failed_reads;
  Gauge* cached_pages;
  Gauge* capacity_pages;

  BufferPoolTotalsSnapshot Snapshot() const {
    BufferPoolTotalsSnapshot s;
    s.hits = hits->Value();
    s.misses = misses->Value();
    s.evictions = evictions->Value();
    s.failed_reads = failed_reads->Value();
    return s;
  }
};
BufferPoolMetrics& GlobalBufferPoolMetrics();

// Monotonic nanoseconds since an arbitrary epoch (steady_clock).
uint64_t MonotonicNanos();

}  // namespace obs
}  // namespace dsig

#endif  // DSIG_OBS_METRICS_H_
