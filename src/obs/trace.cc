#include "obs/trace.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/json.h"

namespace dsig {
namespace obs {
namespace internal {
constinit thread_local QueryTrace* g_active_trace = nullptr;
}  // namespace internal
using internal::g_active_trace;

namespace {

std::FILE* g_sink = nullptr;  // nullptr means stderr

// Initialized once from DSIG_TRACE, then steered by SetTracingEnabled.
std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool>* flag = new std::atomic<bool>([] {
    const char* env = std::getenv("DSIG_TRACE");
    return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
  }());
  return *flag;
}

std::FILE* Sink() { return g_sink != nullptr ? g_sink : stderr; }

}  // namespace

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kRowDecode:
      return "row_decode";
    case Phase::kResolve:
      return "resolve";
    case Phase::kBacktrack:
      return "backtrack";
    case Phase::kSort:
      return "sort";
    case Phase::kDijkstraFallback:
      return "dijkstra_fallback";
    case Phase::kBufferIo:
      return "buffer_io";
    case Phase::kOther:
      return "other";
  }
  return "unknown";
}

bool TracingEnabled() {
  return EnabledFlag().load(std::memory_order_relaxed);
}

void SetTracingEnabled(bool enabled) {
  EnabledFlag().store(enabled, std::memory_order_relaxed);
}

void SetTraceSink(std::FILE* sink) { g_sink = sink; }

void Span::Enter() {
  parent_ = trace_->current_span_;
  trace_->current_span_ = this;
  start_ns_ = MonotonicNanos();
}

void Span::Exit() {
  const uint64_t elapsed = MonotonicNanos() - start_ns_;
  const uint64_t self = elapsed > child_ns_ ? elapsed - child_ns_ : 0;
  trace_->phase_ns_[static_cast<int>(phase_)] += self;
  trace_->current_span_ = parent_;
  // Report FULL elapsed time upward: the parent's self time excludes us
  // entirely, so phase totals partition the query's wall time.
  if (parent_ != nullptr) {
    parent_->child_ns_ += elapsed;
  } else {
    trace_->top_level_span_ns_ += elapsed;
  }
}

QueryInstrument::QueryInstrument(const char* kind_name) : kind(kind_name) {
  auto& registry = MetricsRegistry::Global();
  const std::string prefix = std::string("query.") + kind_name;
  latency_ms = registry.GetHistogram(prefix + ".latency_ms");
  count = registry.GetCounter(prefix + ".count");
}

QueryTrace::QueryTrace(QueryInstrument* instrument, Mode mode)
    : instrument_(instrument), start_ns_(MonotonicNanos()) {
  if (mode == Mode::kCollectLight) {
    // Deltas only: g_active_trace stays untouched, so every Span keeps its
    // disabled fast path and an enclosing or nested full trace is
    // unaffected.
    light_ = true;
    collect_ = true;
    ops_before_ = GlobalOpCounters();
    buffer_before_ = GlobalBufferPoolMetrics().Snapshot();
    return;
  }
  const bool want_root = mode == Mode::kCollectRoot || TracingEnabled();
  if (!want_root || g_active_trace != nullptr) return;
  // Outermost traced query on this thread: collect spans and deltas.
  root_ = true;
  collect_ = mode == Mode::kCollectRoot;
  g_active_trace = this;
  ops_before_ = GlobalOpCounters();
  buffer_before_ = GlobalBufferPoolMetrics().Snapshot();
}

TraceSummary QueryTrace::Finish() {
  TraceSummary summary;
  const uint64_t total_ns = MonotonicNanos() - start_ns_;
  summary.total_ms = static_cast<double>(total_ns) * 1e-6;
  if (finished_ || (!root_ && !light_)) return summary;
  finished_ = true;
  if (root_) g_active_trace = nullptr;

  summary.collected = true;
  summary.has_phases = root_;
  if (root_) {
    phase_ns_[static_cast<int>(Phase::kOther)] +=
        total_ns > top_level_span_ns_ ? total_ns - top_level_span_ns_ : 0;
    for (int p = 0; p < kNumPhases; ++p) {
      summary.phases_ms[p] = static_cast<double>(phase_ns_[p]) * 1e-6;
    }
  } else {
    // No spans ran: the whole query is unattributed time, so the
    // phases-partition-the-total invariant still holds for consumers.
    summary.phases_ms[static_cast<int>(Phase::kOther)] = summary.total_ms;
  }
  summary.ops = GlobalOpCounters() - ops_before_;
  const BufferPoolTotalsSnapshot buffer = GlobalBufferPoolMetrics().Snapshot();
  summary.buffer.hits = buffer.hits - buffer_before_.hits;
  summary.buffer.misses = buffer.misses - buffer_before_.misses;
  summary.buffer.evictions = buffer.evictions - buffer_before_.evictions;
  summary.buffer.failed_reads =
      buffer.failed_reads - buffer_before_.failed_reads;
  return summary;
}

QueryTrace::~QueryTrace() {
  const uint64_t total_ns = MonotonicNanos() - start_ns_;
  if (instrument_ != nullptr) {
    instrument_->latency_ms->Record(static_cast<double>(total_ns) * 1e-6);
    instrument_->count->Add(1);
  }
  if (!root_ || finished_) return;
  g_active_trace = nullptr;
  // A collect-mode root the caller never harvested has nowhere to report.
  if (collect_) return;

  // Whatever ran outside any top-level span is "other"; direct kOther spans
  // (already counted in top_level_span_ns_) keep their share.
  phase_ns_[static_cast<int>(Phase::kOther)] +=
      total_ns > top_level_span_ns_ ? total_ns - top_level_span_ns_ : 0;

  const OpCounters ops = GlobalOpCounters() - ops_before_;
  const BufferPoolTotalsSnapshot buffer = GlobalBufferPoolMetrics().Snapshot();

  JsonWriter w;
  w.BeginObject();
  w.Field("query", instrument_->kind);
  w.Field("total_ms", static_cast<double>(total_ns) * 1e-6);
  w.Key("phases_ms").BeginObject();
  for (int p = 0; p < kNumPhases; ++p) {
    w.Field(PhaseName(static_cast<Phase>(p)),
            static_cast<double>(phase_ns_[p]) * 1e-6);
  }
  w.EndObject();
  w.Key("ops").BeginObject();
  ops.ForEach([&w](const char* name, uint64_t value) { w.Field(name, value); });
  w.EndObject();
  w.Key("buffer").BeginObject();
  w.Field("hits", buffer.hits - buffer_before_.hits);
  w.Field("misses", buffer.misses - buffer_before_.misses);
  w.Field("evictions", buffer.evictions - buffer_before_.evictions);
  w.Field("failed_reads", buffer.failed_reads - buffer_before_.failed_reads);
  w.EndObject();
  w.EndObject();

  // One fwrite per line so concurrent writers cannot interleave mid-record.
  std::string line = w.Take();
  line += '\n';
  std::FILE* sink = Sink();
  std::fwrite(line.data(), 1, line.size(), sink);
  std::fflush(sink);
}

}  // namespace obs
}  // namespace dsig
