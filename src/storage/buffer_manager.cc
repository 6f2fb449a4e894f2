#include "storage/buffer_manager.h"

#include "obs/trace.h"

namespace dsig {

BufferManager::BufferManager(size_t capacity_pages)
    : capacity_(capacity_pages),
      metrics_(&obs::GlobalBufferPoolMetrics()) {
  // Last-constructed pool wins; experiments run one pool at a time.
  metrics_->capacity_pages->Set(static_cast<double>(capacity_pages));
}

bool BufferManager::Access(FileId file, PageId page) {
  const obs::Span span(obs::Phase::kBufferIo);
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.logical_accesses;
  if (capacity_ == 0) {
    ++stats_.physical_accesses;
    metrics_->misses->Add(1);
    if (read_fault_injector_ && read_fault_injector_(file, page)) {
      ++stats_.failed_reads;
      metrics_->failed_reads->Add(1);
    }
    return false;
  }
  const uint64_t key = Key(file, page);
  const auto it = table_.find(key);
  if (it != table_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    metrics_->hits->Add(1);
    return true;
  }
  ++stats_.physical_accesses;
  metrics_->misses->Add(1);
  if (read_fault_injector_ && read_fault_injector_(file, page)) {
    // The read never produced a page, so nothing enters the pool.
    ++stats_.failed_reads;
    metrics_->failed_reads->Add(1);
    return false;
  }
  lru_.push_front(key);
  table_[key] = lru_.begin();
  if (table_.size() > capacity_) {
    table_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
    metrics_->evictions->Add(1);
  }
  metrics_->cached_pages->Set(static_cast<double>(table_.size()));
  return false;
}

void BufferManager::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = {};
  lru_.clear();
  table_.clear();
  metrics_->cached_pages->Set(0.0);
}

}  // namespace dsig
