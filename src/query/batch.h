// Parallel batch-query driver.
//
// Each query holds its own read snapshot on the index's EpochGate (see
// ARCHITECTURE.md, "Parallelism & thread-safety"), so independent queries
// parallelize trivially even next to a live updater, whose updates they wait
// out — except for the op counters, which are thread-local
// (obs/op_counters.h). RunBatch repairs that seam: every chunk of queries
// snapshots its thread's counters before running, withdraws its delta after,
// and the merged batch total is credited to the CALLER's thread exactly
// once. Measurement code written for the serial path (MeasureItems, traces,
// tests asserting counter deltas) therefore sees identical numbers whether a
// batch ran on 1 thread or 16.
#ifndef DSIG_QUERY_BATCH_H_
#define DSIG_QUERY_BATCH_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "query/knn_query.h"
#include "util/thread_pool.h"

namespace dsig {

struct BatchOptions {
  // nullptr = the process-wide pool.
  ThreadPool* pool = nullptr;
  // Minimum queries per chunk; raise when individual queries are tiny.
  size_t min_grain = 1;
};

// Runs fn(i) for every i in [0, n) across the pool, blocking until done.
// Queries in one chunk run in order; chunks run concurrently. The first
// exception propagates. OpCounters accumulated by the batch land on the
// calling thread (see above), including when fn throws (counts of completed
// chunks are credited before rethrow).
void RunBatch(size_t n, const std::function<void(size_t)>& fn,
              const BatchOptions& options = BatchOptions());

// Convenience wrapper: one kNN query per node of `queries`, results aligned
// with the input. Used by `dsig_tool --threads` and bench_knn's sweep.
std::vector<KnnResult> BatchKnnQuery(const SignatureIndex& index,
                                     const std::vector<NodeId>& queries,
                                     size_t k, KnnResultType type,
                                     const BatchOptions& options =
                                         BatchOptions());

}  // namespace dsig

#endif  // DSIG_QUERY_BATCH_H_
