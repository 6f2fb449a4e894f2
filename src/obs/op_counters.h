// Process-wide counters of the signature's basic operations.
//
// The paper's analysis decomposes query cost into signature reads,
// backtracking steps, and comparisons (e.g., §6.2 attributes the kNN
// clock-time gap at k = 50 to sorting CPU and decompression). These counters
// expose that decomposition to benches, tests, traces, and the metrics
// registry. THREAD-LOCAL plain fields — each query stream counts into its
// own instance for free (no atomics on per-entry-decode paths), and the
// batch driver (query/batch.h) merges worker deltas back into the caller's
// counters with operator+= so single-threaded measurement code keeps
// working unchanged.
//
// The field list lives in one X-macro so a new counter automatically joins
// the struct, the snapshot delta, and every consumer that iterates fields
// (trace JSON, bench reports, registry publication). The decode_fallbacks
// addition had to touch three hand-maintained spots; never again.
#ifndef DSIG_OBS_OP_COUNTERS_H_
#define DSIG_OBS_OP_COUNTERS_H_

#include <cstdint>

namespace dsig {

// X(field, comment) for every counter, in declaration order. Order is part
// of the API: aggregate initialization (`OpCounters{1, 2, ...}`) in tests
// and benches follows it, so new counters go at the END.
#define DSIG_OP_COUNTER_FIELDS(X)                                           \
  X(row_reads, "whole signature rows decoded")                              \
  X(entry_reads, "single components decoded")                               \
  X(backtrack_steps, "guided-backtracking hops")                            \
  X(exact_compares, "Algorithm 2 invocations")                              \
  X(approx_compares, "Algorithm 3 invocations")                             \
  X(resolves, "compressed components decompressed")                         \
  /* Graceful degradation: rows that failed to decode (in-memory corruption \
     slipping past load-time checks) and were recomputed by bounded         \
     Dijkstra. Nonzero means queries stayed correct but paid shortest-path  \
     CPU for the affected rows. */                                          \
  X(decode_fallbacks,                                                        \
    "rows recomputed by bounded Dijkstra after decode failure")              \
  /* Exact-distance routing (query/planner.h), both in distances: how many  \
     exact values the hub-label tier answered, and how many label-eligible  \
     ones (a tier is attached) the planner demoted to chasing/Dijkstra      \
     (stale latch, force-off pin, or a blob that does not decode). */       \
  X(label_distances, "exact distances answered by the hub-label tier")       \
  X(label_demotions, "label-eligible distances routed to chase/Dijkstra")

struct OpCounters {
#define DSIG_OP_COUNTER_DECLARE(field, comment) uint64_t field = 0;
  DSIG_OP_COUNTER_FIELDS(DSIG_OP_COUNTER_DECLARE)
#undef DSIG_OP_COUNTER_DECLARE

  OpCounters operator-(const OpCounters& other) const {
    OpCounters delta;
#define DSIG_OP_COUNTER_SUB(field, comment) delta.field = field - other.field;
    DSIG_OP_COUNTER_FIELDS(DSIG_OP_COUNTER_SUB)
#undef DSIG_OP_COUNTER_SUB
    return delta;
  }

  OpCounters& operator+=(const OpCounters& other) {
#define DSIG_OP_COUNTER_ADD(field, comment) field += other.field;
    DSIG_OP_COUNTER_FIELDS(DSIG_OP_COUNTER_ADD)
#undef DSIG_OP_COUNTER_ADD
    return *this;
  }

  // Visits (name, value) for every counter in declaration order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
#define DSIG_OP_COUNTER_VISIT(field, comment) fn(#field, field);
    DSIG_OP_COUNTER_FIELDS(DSIG_OP_COUNTER_VISIT)
#undef DSIG_OP_COUNTER_VISIT
  }
};

// The CALLING THREAD's live counters (mutable; reset with ResetOpCounters).
// Each thread counts independently; aggregation across threads is the batch
// driver's job, not this accessor's.
OpCounters& GlobalOpCounters();

// Resets the calling thread's counters.
void ResetOpCounters();

// Copies the live counters into the metrics registry as "ops.<field>"
// counters, so registry dumps (dsig_tool stats, Prometheus text) include
// them alongside buffer and latency metrics.
void PublishOpCounters();

}  // namespace dsig

#endif  // DSIG_OBS_OP_COUNTERS_H_
