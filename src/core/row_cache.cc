#include "core/row_cache.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace dsig {
namespace {

// Approximate heap cost of one cached row: its lanes plus the stage object,
// list node, table slot, and shared_ptr control block.
constexpr size_t kPerRowOverhead = 96;

size_t RowBytes(const RowStage& row) {
  return row.lane_bytes() + kPerRowOverhead;
}

}  // namespace

RowCache::RowCache() : RowCache(Options()) {}

RowCache::RowCache(const Options& options)
    : options_(options),
      shards_(std::max<size_t>(1, options.num_shards)) {
  shard_budget_ = options_.byte_budget / shards_.size();
  auto& registry = obs::MetricsRegistry::Global();
  hits_ = registry.GetCounter("rowcache.hits");
  misses_ = registry.GetCounter("rowcache.misses");
  evictions_ = registry.GetCounter("rowcache.evictions");
  inserts_ = registry.GetCounter("rowcache.inserts");
  bytes_gauge_ = registry.GetGauge("rowcache.bytes");
}

std::shared_ptr<const RowStage> RowCache::Get(NodeId n) const {
  if (options_.byte_budget == 0) return nullptr;
  Shard& shard = ShardOf(n);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.table.find(n);
  if (it == shard.table.end()) {
    misses_->Add();
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  hits_->Add();
  return it->second.row;
}

void RowCache::Put(NodeId n, std::shared_ptr<const RowStage> row) {
  if (options_.byte_budget == 0) return;
  DSIG_CHECK(row != nullptr);
  const size_t bytes = RowBytes(*row);
  Shard& shard = ShardOf(n);
  uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.table.find(n);
    if (it != shard.table.end()) {
      shard.bytes -= it->second.bytes;
      shard.bytes += bytes;
      it->second.row = std::move(row);
      it->second.bytes = bytes;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    } else {
      shard.lru.push_front(n);
      Entry entry;
      entry.row = std::move(row);
      entry.bytes = bytes;
      entry.lru_it = shard.lru.begin();
      shard.table.emplace(n, std::move(entry));
      shard.bytes += bytes;
    }
    // Incremental eviction from the cold end; never evict the row just
    // touched (keep >= 1 so one oversized row does not thrash forever).
    while (shard.bytes > shard_budget_ && shard.table.size() > 1) {
      const NodeId victim = shard.lru.back();
      const auto victim_it = shard.table.find(victim);
      shard.bytes -= victim_it->second.bytes;
      shard.table.erase(victim_it);
      shard.lru.pop_back();
      ++evicted;
    }
  }
  inserts_->Add();
  if (evicted > 0) evictions_->Add(evicted);
  bytes_gauge_->Set(static_cast<double>(this->bytes()));
}

void RowCache::Erase(NodeId n) {
  Shard& shard = ShardOf(n);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.table.find(n);
    if (it == shard.table.end()) return;
    shard.bytes -= it->second.bytes;
    shard.lru.erase(it->second.lru_it);
    shard.table.erase(it);
  }
  bytes_gauge_->Set(static_cast<double>(bytes()));
}

void RowCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.lru.clear();
    shard.table.clear();
    shard.bytes = 0;
  }
  bytes_gauge_->Set(0.0);
}

size_t RowCache::bytes() const {
  size_t total = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.bytes;
  }
  return total;
}

size_t RowCache::entries() const {
  size_t total = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.table.size();
  }
  return total;
}

void PublishRowCacheMetrics() {
  auto& registry = obs::MetricsRegistry::Global();
  const double hits =
      static_cast<double>(registry.GetCounter("rowcache.hits")->Value());
  const double misses =
      static_cast<double>(registry.GetCounter("rowcache.misses")->Value());
  const double lookups = hits + misses;
  registry.GetGauge("rowcache.hit_rate")
      ->Set(lookups == 0 ? 0.0 : hits / lookups);
}

}  // namespace dsig
