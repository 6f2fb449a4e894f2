// LRU buffer pool over logical (file, page) pairs.
//
// All index structures share one pool per experiment, mirroring a DBMS
// buffer. Access() records a logical access always and a physical access on
// a miss; benches report both (the paper's "page accesses" are physical
// reads under a modest buffer).
#ifndef DSIG_STORAGE_BUFFER_MANAGER_H_
#define DSIG_STORAGE_BUFFER_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <unordered_map>

#include "obs/metrics.h"
#include "storage/page.h"

namespace dsig {

// X(field, comment) for every stat, in declaration order. Aggregate
// initialization in tests follows this order, so new fields go at the END
// (same convention as DSIG_OP_COUNTER_FIELDS).
#define DSIG_BUFFER_STAT_FIELDS(X)                                          \
  X(logical_accesses, "page touches, hit or miss")                          \
  X(physical_accesses, "misses: reads that went to storage")                \
  /* Physical reads the fault injector failed (see SetReadFaultInjector).   \
     Failed pages are not cached, so a retry re-reads them. */              \
  X(failed_reads, "physical reads failed by the fault injector")            \
  X(evictions, "pages dropped from a full pool (LRU victim)")

struct BufferStats {
#define DSIG_BUFFER_STAT_DECLARE(field, comment) uint64_t field = 0;
  DSIG_BUFFER_STAT_FIELDS(DSIG_BUFFER_STAT_DECLARE)
#undef DSIG_BUFFER_STAT_DECLARE

  BufferStats operator-(const BufferStats& other) const {
    BufferStats delta;
#define DSIG_BUFFER_STAT_SUB(field, comment) delta.field = field - other.field;
    DSIG_BUFFER_STAT_FIELDS(DSIG_BUFFER_STAT_SUB)
#undef DSIG_BUFFER_STAT_SUB
    return delta;
  }

  // Visits (name, value) for every stat in declaration order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
#define DSIG_BUFFER_STAT_VISIT(field, comment) fn(#field, field);
    DSIG_BUFFER_STAT_FIELDS(DSIG_BUFFER_STAT_VISIT)
#undef DSIG_BUFFER_STAT_VISIT
  }
};

class BufferManager {
 public:
  // `capacity_pages` = 0 disables caching entirely (every access is a miss).
  // Hits/misses/evictions/failed reads also charge the process-wide
  // "buffer.*" registry counters shared across all pools (see
  // obs::BufferPoolMetrics).
  explicit BufferManager(size_t capacity_pages);

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  // Touches one page; returns true on a buffer hit. Thread-safe: batch
  // query workers share one pool, so the LRU list and stats are guarded by
  // an internal mutex (one short critical section per page touch).
  bool Access(FileId file, PageId page);

  // Allocates a fresh file-id namespace for a new paged structure.
  FileId RegisterFile() { return next_file_++; }

  // Measurement APIs: call only while no other thread is in Access() — the
  // returned reference aliases state the mutex guards.
  const BufferStats& stats() const { return stats_; }

  // Clears counters but keeps buffer contents (for steady-state measurement).
  void ResetStats() {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = {};
  }

  // Drops all cached pages and counters (cold-cache measurement).
  void Clear();

  size_t capacity() const { return capacity_; }

  // Fault injection for resilience tests: `injector(file, page)` is consulted
  // on every physical read (i.e. buffer miss); returning true makes that read
  // fail — the access is counted in `failed_reads` and the page is NOT
  // cached, exactly as a pool would behave when the disk read errors out.
  // Pass nullptr to disarm. Hits are unaffected (the page is already in
  // memory).
  using ReadFaultInjector = std::function<bool(FileId, PageId)>;
  void SetReadFaultInjector(ReadFaultInjector injector) {
    read_fault_injector_ = std::move(injector);
  }

 private:
  // Key packs (file, page); files are small and pages < 2^40 in practice.
  static uint64_t Key(FileId file, PageId page) {
    return (static_cast<uint64_t>(file) << 40) | page;
  }

  size_t capacity_;
  mutable std::mutex mu_;  // guards stats_, lru_, table_
  BufferStats stats_;
  obs::BufferPoolMetrics* metrics_;  // process-wide metrics, never null
  std::list<uint64_t> lru_;  // front = most recent
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> table_;
  FileId next_file_ = 0;
  ReadFaultInjector read_fault_injector_;
};

}  // namespace dsig

#endif  // DSIG_STORAGE_BUFFER_MANAGER_H_
