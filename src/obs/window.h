// Rolling-window metrics: a ring of per-interval shards behind the
// lock-free Counter/Histogram primitives (obs/metrics.h).
//
// Process-lifetime histograms cannot answer "what is p99 over the LAST
// minute" — the question an operator (and the SLO engine, obs/slo.h)
// actually asks. A WindowedHistogram keeps `num_slots` full Histogram
// shards in a ring, each owning one `slot_ns` interval of wall time and
// tagged with the interval's tick (now / slot_ns). Recording is the
// existing lock-free Histogram::Record plus one acquire load of the slot's
// tick; a recorder that lands on a stale slot takes a small rotate mutex
// once per slot per interval to reset and re-tag it. Readers never pause
// recorders: a window snapshot Merge()s every shard whose tick falls
// inside the window into a caller-owned Histogram, so all the percentile
// machinery (bucket interpolation, min/max clamping) applies unchanged.
//
// Semantic races, by design (everything is atomics, so none of this is a
// data race):
//   * a recorder delayed across a slot boundary may charge its sample to
//     the adjacent interval (one-slot smear);
//   * a reader merging a shard that is concurrently recycled may include
//     or exclude a handful of in-flight samples. SnapshotWindowAt caps the
//     window at num_slots - 1 shards so the shard currently being
//     recycled (the oldest) is never merged mid-reset.
//
// Every time-taking entry point has an *At(..., now_ns) twin so tests
// drive the clock deterministically.
#ifndef DSIG_OBS_WINDOW_H_
#define DSIG_OBS_WINDOW_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "obs/metrics.h"

namespace dsig {
namespace obs {

// The ring's geometry; every owner sizes its own (obs/slo.cc's RingFor).
struct WindowOptions {
  uint64_t slot_ns;  // wall time per shard
  int num_slots;     // shards in the ring; the widest window is one fewer
};

class WindowedHistogram {
 public:
  explicit WindowedHistogram(const WindowOptions& options);
  WindowedHistogram(const WindowedHistogram&) = delete;
  WindowedHistogram& operator=(const WindowedHistogram&) = delete;

  void Record(double value) { RecordAt(value, MonotonicNanos()); }
  void RecordAt(double value, uint64_t now_ns);

  // Merges the shards covering the last `window_ns` into `*out` (which the
  // caller typically default-constructs). Capped at num_slots - 1 shards.
  void SnapshotWindow(uint64_t window_ns, Histogram* out) const {
    SnapshotWindowAt(window_ns, MonotonicNanos(), out);
  }
  void SnapshotWindowAt(uint64_t window_ns, uint64_t now_ns,
                        Histogram* out) const;

  void Reset();

  uint64_t slot_ns() const { return options_.slot_ns; }
  int num_slots() const { return options_.num_slots; }
  // The widest window a snapshot can honour.
  uint64_t max_window_ns() const {
    return options_.slot_ns * static_cast<uint64_t>(options_.num_slots - 1);
  }

 private:
  // Tick that matches no real interval; slots start (and Reset to) it so an
  // untouched slot is never merged.
  static constexpr uint64_t kNeverTick = ~0ull;

  struct Slot {
    std::atomic<uint64_t> tick{kNeverTick};
    Histogram hist;
  };

  Slot* SlotFor(uint64_t tick);

  WindowOptions options_;
  std::unique_ptr<Slot[]> slots_;
  std::mutex rotate_mu_;  // taken once per slot per interval, never on reads
};

// Same ring, scalar payload: "how many requests / errors in the last N
// seconds". Shares WindowOptions so an SLO class can keep its counters and
// latency shards on identical interval boundaries.
class WindowedCounter {
 public:
  explicit WindowedCounter(const WindowOptions& options);
  WindowedCounter(const WindowedCounter&) = delete;
  WindowedCounter& operator=(const WindowedCounter&) = delete;

  void Add(uint64_t delta = 1) { AddAt(delta, MonotonicNanos()); }
  void AddAt(uint64_t delta, uint64_t now_ns);

  uint64_t SumWindow(uint64_t window_ns) const {
    return SumWindowAt(window_ns, MonotonicNanos());
  }
  uint64_t SumWindowAt(uint64_t window_ns, uint64_t now_ns) const;

  void Reset();

  uint64_t slot_ns() const { return options_.slot_ns; }
  int num_slots() const { return options_.num_slots; }

 private:
  static constexpr uint64_t kNeverTick = ~0ull;

  struct Slot {
    std::atomic<uint64_t> tick{kNeverTick};
    std::atomic<uint64_t> value{0};
  };

  WindowOptions options_;
  std::unique_ptr<Slot[]> slots_;
  std::mutex rotate_mu_;
};

}  // namespace obs
}  // namespace dsig

#endif  // DSIG_OBS_WINDOW_H_
