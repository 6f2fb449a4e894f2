// Sharded LRU cache of fully-resolved signature rows — the only place the
// index keeps decoded rows beyond a query's scratch stage.
//
// ReadEntry() hits a compressed component on almost every backtracking step
// of a kNN walk, and resolving it needs the whole row (§5.3); rows the index
// had to recompute from the graph after a decode failure live here too. The
// cache has:
//
//  * a byte budget (rows vary 10x in size with the object count, so bounding
//    rows bounded nothing useful),
//  * incremental LRU eviction — one victim at a time from the cold end, so a
//    working set slightly over budget degrades smoothly instead of cliffing,
//  * shards with per-shard mutexes, so parallel batch queries (query/batch.h)
//    share one index without serializing on a single cache lock. Rows are
//    handed out as shared_ptr<const RowStage> (core/row_stage.h), immutable
//    once cached: eviction cannot pull a row out from under a reader on
//    another thread, and no writer touches a cached row.
//
// Activity is charged directly to the process-wide metrics registry
// ("rowcache.hits" / "misses" / "evictions" / "inserts" counters, a
// "rowcache.bytes" gauge); pointers are resolved once per cache. The derived
// "rowcache.hit_rate" gauge is refreshed by PublishRowCacheMetrics().
#ifndef DSIG_CORE_ROW_CACHE_H_
#define DSIG_CORE_ROW_CACHE_H_

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/row_stage.h"
#include "graph/road_network.h"
#include "obs/metrics.h"

namespace dsig {

class RowCache {
 public:
  struct Options {
    // Total bytes of cached rows across all shards (approximate: the row's
    // lane buffer plus a fixed per-row overhead). 0 disables caching
    // entirely — Get() always misses silently and Put() drops the row.
    size_t byte_budget = size_t{8} << 20;
    // Per-shard mutexes bound contention; node ids spread across shards.
    size_t num_shards = 8;
  };

  RowCache();  // default Options
  explicit RowCache(const Options& options);

  RowCache(const RowCache&) = delete;
  RowCache& operator=(const RowCache&) = delete;

  // Returns the cached row for `n` (marking it most-recent), or nullptr.
  std::shared_ptr<const RowStage> Get(NodeId n) const;

  // Inserts (or replaces) `n`'s row and evicts cold rows one at a time until
  // the shard is back under its budget share. A shard always keeps its
  // most-recent row even when that row alone exceeds the share, so a single
  // huge row still caches rather than thrashing.
  void Put(NodeId n, std::shared_ptr<const RowStage> row);

  // Drops `n` if cached (row invalidation on update).
  void Erase(NodeId n);

  // Drops everything.
  void Clear();

  size_t bytes() const;    // current cached payload across shards
  size_t entries() const;  // current cached row count

  const Options& options() const { return options_; }

 private:
  struct Entry {
    std::shared_ptr<const RowStage> row;
    size_t bytes = 0;
    std::list<NodeId>::iterator lru_it;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<NodeId> lru;  // front = most recent
    std::unordered_map<NodeId, Entry> table;
    size_t bytes = 0;
  };

  Shard& ShardOf(NodeId n) const {
    return shards_[static_cast<size_t>(n) % shards_.size()];
  }

  Options options_;
  size_t shard_budget_;
  mutable std::vector<Shard> shards_;

  // Registry handles, resolved once (stable pointers; recording is
  // lock-free relaxed atomics — see obs/metrics.h).
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* evictions_;
  obs::Counter* inserts_;
  obs::Gauge* bytes_gauge_;
};

// Refreshes the derived "rowcache.hit_rate" gauge (hits / (hits + misses),
// 0 when idle) from the registry counters. Called by `dsig_tool stats` and
// bench_knn.
void PublishRowCacheMetrics();

}  // namespace dsig

#endif  // DSIG_CORE_ROW_CACHE_H_
