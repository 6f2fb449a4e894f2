#include "obs/window.h"

#include <algorithm>

namespace dsig {
namespace obs {

WindowedHistogram::WindowedHistogram(const WindowOptions& options)
    : options_(options) {
  if (options_.slot_ns == 0) options_.slot_ns = 1;
  // Two slots minimum: one live, one the snapshot cap excludes.
  options_.num_slots = std::max(options_.num_slots, 2);
  slots_ = std::make_unique<Slot[]>(static_cast<size_t>(options_.num_slots));
}

WindowedHistogram::Slot* WindowedHistogram::SlotFor(uint64_t tick) {
  Slot& slot =
      slots_[tick % static_cast<uint64_t>(options_.num_slots)];
  // Fast path: the slot already belongs to this interval. Acquire pairs with
  // the release in the rotation below, so a recorder that sees the new tick
  // also sees the Reset() that preceded it.
  if (slot.tick.load(std::memory_order_acquire) != tick) {
    std::lock_guard<std::mutex> lock(rotate_mu_);
    if (slot.tick.load(std::memory_order_relaxed) != tick) {
      slot.hist.Reset();
      slot.tick.store(tick, std::memory_order_release);
    }
  }
  return &slot;
}

void WindowedHistogram::RecordAt(double value, uint64_t now_ns) {
  SlotFor(now_ns / options_.slot_ns)->hist.Record(value);
}

void WindowedHistogram::SnapshotWindowAt(uint64_t window_ns, uint64_t now_ns,
                                         Histogram* out) const {
  const uint64_t now_tick = now_ns / options_.slot_ns;
  uint64_t span = (window_ns + options_.slot_ns - 1) / options_.slot_ns;
  span = std::clamp<uint64_t>(
      span, 1, static_cast<uint64_t>(options_.num_slots) - 1);
  for (uint64_t back = 0; back < span && back <= now_tick; ++back) {
    const uint64_t tick = now_tick - back;
    const Slot& slot =
        slots_[tick % static_cast<uint64_t>(options_.num_slots)];
    if (slot.tick.load(std::memory_order_acquire) == tick) {
      out->Merge(slot.hist);
    }
  }
}

void WindowedHistogram::Reset() {
  std::lock_guard<std::mutex> lock(rotate_mu_);
  for (int i = 0; i < options_.num_slots; ++i) {
    slots_[i].hist.Reset();
    slots_[i].tick.store(kNeverTick, std::memory_order_release);
  }
}

WindowedCounter::WindowedCounter(const WindowOptions& options)
    : options_(options) {
  if (options_.slot_ns == 0) options_.slot_ns = 1;
  options_.num_slots = std::max(options_.num_slots, 2);
  slots_ = std::make_unique<Slot[]>(static_cast<size_t>(options_.num_slots));
}

void WindowedCounter::AddAt(uint64_t delta, uint64_t now_ns) {
  const uint64_t tick = now_ns / options_.slot_ns;
  Slot& slot =
      slots_[tick % static_cast<uint64_t>(options_.num_slots)];
  if (slot.tick.load(std::memory_order_acquire) != tick) {
    std::lock_guard<std::mutex> lock(rotate_mu_);
    if (slot.tick.load(std::memory_order_relaxed) != tick) {
      slot.value.store(0, std::memory_order_relaxed);
      slot.tick.store(tick, std::memory_order_release);
    }
  }
  slot.value.fetch_add(delta, std::memory_order_relaxed);
}

uint64_t WindowedCounter::SumWindowAt(uint64_t window_ns,
                                      uint64_t now_ns) const {
  const uint64_t now_tick = now_ns / options_.slot_ns;
  uint64_t span = (window_ns + options_.slot_ns - 1) / options_.slot_ns;
  span = std::clamp<uint64_t>(
      span, 1, static_cast<uint64_t>(options_.num_slots) - 1);
  uint64_t sum = 0;
  for (uint64_t back = 0; back < span && back <= now_tick; ++back) {
    const uint64_t tick = now_tick - back;
    const Slot& slot =
        slots_[tick % static_cast<uint64_t>(options_.num_slots)];
    if (slot.tick.load(std::memory_order_acquire) == tick) {
      sum += slot.value.load(std::memory_order_relaxed);
    }
  }
  return sum;
}

void WindowedCounter::Reset() {
  std::lock_guard<std::mutex> lock(rotate_mu_);
  for (int i = 0; i < options_.num_slots; ++i) {
    slots_[i].value.store(0, std::memory_order_relaxed);
    slots_[i].tick.store(kNeverTick, std::memory_order_release);
  }
}

}  // namespace obs
}  // namespace dsig
