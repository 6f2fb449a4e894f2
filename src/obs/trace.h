// Per-query tracing: RAII spans that attribute a query's wall time to
// phases (row decode, resolve, guided backtracking, sort, Dijkstra
// fallback, buffer I/O) and emit one structured JSON line per query.
//
// Attribution is by SELF time: a span charges its phase with its elapsed
// time minus the time spent in nested spans, and reports its full elapsed
// time up to its parent. The phase totals of a query therefore partition
// the query's wall time exactly — "other" absorbs whatever ran outside any
// span — which is the property the trace consumer relies on (phases sum to
// ≈ total_ms).
//
// Tracing is off by default. When off, a Span costs one thread-local load
// and a branch, and a QueryTrace still records the query's latency into the
// metrics registry (histogram "query.<kind>.latency_ms") but emits nothing.
// Enable with SetTracingEnabled(true), a `--trace` flag in the tools, or
// the DSIG_TRACE environment variable (any non-empty value but "0").
//
// Nesting: composite queries reuse primitive ones (CNN runs a kNN per path
// node; aggregates run a range query). Only the OUTERMOST QueryTrace on a
// thread becomes the trace root and emits a line; inner QueryTraces still
// feed their latency histograms but fold their time into the enclosing
// trace's phases.
#ifndef DSIG_OBS_TRACE_H_
#define DSIG_OBS_TRACE_H_

#include <cstdint>
#include <cstdio>

#include "obs/metrics.h"
#include "obs/op_counters.h"

namespace dsig {
namespace obs {

enum class Phase : int {
  kRowDecode = 0,
  kResolve,
  kBacktrack,
  kSort,
  kDijkstraFallback,
  kBufferIo,
  kOther,  // query time outside any span (bucketing, result assembly)
};
inline constexpr int kNumPhases = static_cast<int>(Phase::kOther) + 1;

const char* PhaseName(Phase phase);

bool TracingEnabled();
void SetTracingEnabled(bool enabled);

// Where trace lines go; default stderr. Not owned, must outlive tracing.
void SetTraceSink(std::FILE* sink);

class QueryTrace;

namespace internal {
// The root trace of the thread's current query, if tracing is on. Exposed
// so Span's disabled fast path inlines to a thread-local load and a branch
// — spans sit on per-backtrack-step and per-entry-decode paths where even
// an out-of-line call shows up in bench_knn at k = 50. constinit tells every
// including TU the variable needs no dynamic initialization, so the load
// goes straight to the TLS slot instead of through a TLS-init wrapper call
// (whose weak-symbol null check UBSan reports as a null-pointer load).
extern constinit thread_local QueryTrace* g_active_trace;
}  // namespace internal

// The query trace currently open on this thread, if any.
inline QueryTrace* ActiveTrace() { return internal::g_active_trace; }

// Charges its phase (self time) on destruction. Safe to use anywhere; a
// no-op when no query trace is active on the thread.
class Span {
 public:
  explicit Span(Phase phase)
      : trace_(internal::g_active_trace), parent_(nullptr), phase_(phase) {
    if (trace_ != nullptr) Enter();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (trace_ != nullptr) Exit();
  }

 private:
  void Enter();  // links into the active trace's span chain, stamps start
  void Exit();   // charges self time to the phase, reports elapsed upward

  QueryTrace* trace_;  // nullptr when tracing is off
  Span* parent_;
  Phase phase_;
  uint64_t start_ns_ = 0;
  uint64_t child_ns_ = 0;
};

// Registry handles for one query kind, resolved once per call site (see
// DSIG_QUERY_TRACE). Construction hits the registry mutex; afterwards all
// recording is lock-free through the cached pointers.
struct QueryInstrument {
  explicit QueryInstrument(const char* kind);

  const char* kind;
  Histogram* latency_ms;
  Counter* count;
};

// What a collect-mode trace hands back from Finish(): the same phase/ops/
// buffer decomposition a trace line would carry, as data instead of JSON.
// The serve path stitches this into its per-request trace tree (admission
// queue-wait + degrade decision + these execution phases) and emits it for
// SLO-breaching requests only — tail-based sampling.
struct TraceSummary {
  bool collected = false;  // false when another trace owned the thread
  // True only for a full (span-rooting) collect: phases_ms carries real
  // attribution. A light collect reports everything under kOther.
  bool has_phases = false;
  double total_ms = 0;
  double phases_ms[kNumPhases] = {};
  OpCounters ops;                    // delta across the trace
  BufferPoolTotalsSnapshot buffer;   // delta across the trace
};

// Times one query end to end: always records latency + count into the
// registry; when tracing is enabled and this is the outermost query on the
// thread, also snapshots OpCounters and the buffer-pool counters and emits
// one JSON trace line on destruction.
//
// Mode::kCollectRoot instead makes this trace the thread's root regardless
// of the tracing flag and NEVER emits: the caller harvests the phase/ops
// decomposition with Finish() and decides what to do with it. Inner
// QueryTraces (the DSIG_QUERY_TRACE entry points) behave exactly as under
// an ordinary root: they feed their latency histograms and fold their
// spans into this trace.
class QueryTrace {
 public:
  enum class Mode : uint8_t {
    kAuto,         // root iff tracing is enabled and no root is active
    kCollectRoot,  // root unconditionally (if none active); emits nothing
    // Collects total time and op/buffer deltas WITHOUT becoming the span
    // root: every Span in the query keeps its disabled fast path (one
    // thread-local load), so this mode is cheap enough to wrap every
    // request. phases_ms comes back unattributed (all kOther). The serve
    // path uses this always-on and upgrades a sampled subset of requests
    // to kCollectRoot for full phase attribution — rooting spans costs
    // tens of nanoseconds per span across the query inner loops, which
    // bench_trace_overhead shows is far too much to pay on every request.
    kCollectLight,
  };

  // `instrument` may be null only in kCollectRoot mode (the caller records
  // its own latency metrics).
  explicit QueryTrace(QueryInstrument* instrument, Mode mode = Mode::kAuto);
  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;
  ~QueryTrace();

  // Closes a collect-mode trace and returns its summary; the destructor
  // then only records the instrument metrics (if any). On a trace that is
  // not the collecting root (another query was already active on the
  // thread), returns a summary with collected == false and only total_ms
  // set.
  TraceSummary Finish();

 private:
  friend class Span;

  QueryInstrument* instrument_;
  bool root_ = false;   // outermost traced query on this thread
  bool light_ = false;  // kCollectLight: deltas without span rooting
  bool collect_ = false;
  bool finished_ = false;
  uint64_t start_ns_;
  uint64_t phase_ns_[kNumPhases] = {};
  uint64_t top_level_span_ns_ = 0;  // total time of depth-1 spans
  Span* current_span_ = nullptr;
  OpCounters ops_before_;
  BufferPoolTotalsSnapshot buffer_before_;
};

}  // namespace obs
}  // namespace dsig

// Declares this function a query entry point of the given kind (a string
// literal, e.g. "knn"). Resolves the registry handles once, then times every
// call.
#define DSIG_QUERY_TRACE(kind)                                     \
  static ::dsig::obs::QueryInstrument dsig_query_instrument{kind}; \
  ::dsig::obs::QueryTrace dsig_query_trace{&dsig_query_instrument}

#endif  // DSIG_OBS_TRACE_H_
