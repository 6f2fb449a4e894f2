#include "query/batch.h"

#include <mutex>

#include "obs/op_counters.h"

namespace dsig {

void RunBatch(size_t n, const std::function<void(size_t)>& fn,
              const BatchOptions& options) {
  ThreadPool* pool =
      options.pool != nullptr ? options.pool : &ThreadPool::Global();
  std::mutex mu;
  OpCounters batch;
  const auto chunk = [&](size_t begin, size_t end) {
    // Withdraw this chunk's counter delta from whichever thread ran it —
    // including the caller, which participates in the loop — so the batch
    // total below is credited exactly once.
    const OpCounters before = GlobalOpCounters();
    for (size_t i = begin; i < end; ++i) fn(i);
    const OpCounters delta = GlobalOpCounters() - before;
    GlobalOpCounters() = before;
    std::lock_guard<std::mutex> lock(mu);
    batch += delta;
  };
  try {
    pool->ParallelForChunks(n, options.min_grain, chunk);
  } catch (...) {
    GlobalOpCounters() += batch;
    throw;
  }
  GlobalOpCounters() += batch;
}

std::vector<KnnResult> BatchKnnQuery(const SignatureIndex& index,
                                     const std::vector<NodeId>& queries,
                                     size_t k, KnnResultType type,
                                     const BatchOptions& options) {
  // No batch-wide snapshot here, deliberately: each worker thread takes its
  // own whole-query ReadSnapshot inside SignatureKnnQuery (snapshots are
  // per-thread), so every individual query is atomic. Holding a shared lock
  // on this thread while workers also acquire it could deadlock against a
  // waiting writer on writer-preferring rwlock implementations.
  std::vector<KnnResult> results(queries.size());
  RunBatch(
      queries.size(),
      [&](size_t i) { results[i] = SignatureKnnQuery(index, queries[i], k, type); },
      options);
  return results;
}

}  // namespace dsig
