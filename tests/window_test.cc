#include "obs/window.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace dsig {
namespace obs {
namespace {

constexpr uint64_t kSec = 1000ull * 1000 * 1000;

WindowOptions SmallRing() {
  return {.slot_ns = kSec, .num_slots = 8};  // 1 s shards
}

TEST(WindowedHistogramTest, SnapshotCoversOnlyTheWindow) {
  WindowedHistogram w(SmallRing());
  // One sample per second for 6 seconds, values 10, 20, ..., 60.
  for (int s = 0; s < 6; ++s) {
    w.RecordAt(10.0 * (s + 1), static_cast<uint64_t>(s) * kSec + kSec / 2);
  }
  const uint64_t now = 5 * kSec + kSec / 2;  // inside second 5

  Histogram last2;
  w.SnapshotWindowAt(2 * kSec, now, &last2);
  EXPECT_EQ(last2.Count(), 2u);  // seconds 4 and 5 -> values 50 and 60
  EXPECT_GE(last2.Min(), 50.0 * 0.95);
  EXPECT_LE(last2.Max(), 60.0 * 1.05);

  Histogram all;
  w.SnapshotWindowAt(6 * kSec, now, &all);
  EXPECT_EQ(all.Count(), 6u);
}

TEST(WindowedHistogramTest, OldSlotsAgeOut) {
  WindowedHistogram w(SmallRing());
  w.RecordAt(100.0, 0 * kSec);
  w.RecordAt(100.0, 1 * kSec);

  // 20 seconds later the ring has wrapped far past those ticks: even the
  // widest window must not resurrect them.
  Histogram snap;
  w.SnapshotWindowAt(7 * kSec, 20 * kSec, &snap);
  EXPECT_EQ(snap.Count(), 0u);
}

TEST(WindowedHistogramTest, RecyclingResetsTheSlot) {
  WindowedHistogram w(SmallRing());
  // Tick 0 and tick 8 share slot index 0 in an 8-slot ring.
  w.RecordAt(5.0, 0);
  w.RecordAt(7.0, 8 * kSec);

  Histogram snap;
  w.SnapshotWindowAt(kSec, 8 * kSec, &snap);
  EXPECT_EQ(snap.Count(), 1u);  // the tick-0 sample was dropped on recycle
  EXPECT_GE(snap.Min(), 7.0 * 0.95);
}

TEST(WindowedHistogramTest, WindowIsCappedBelowRingSize) {
  WindowedHistogram w(SmallRing());
  for (int s = 0; s < 8; ++s) {
    w.RecordAt(1.0, static_cast<uint64_t>(s) * kSec);
  }
  // Asking for more than the ring can hold silently caps at num_slots - 1
  // shards (the recycling candidate is excluded).
  Histogram snap;
  w.SnapshotWindowAt(100 * kSec, 7 * kSec + kSec / 2, &snap);
  EXPECT_EQ(snap.Count(), 7u);
  EXPECT_EQ(w.max_window_ns(), 7 * kSec);
}

TEST(WindowedHistogramTest, ResetClearsEverything) {
  WindowedHistogram w(SmallRing());
  w.RecordAt(3.0, kSec);
  w.Reset();
  Histogram snap;
  w.SnapshotWindowAt(4 * kSec, kSec, &snap);
  EXPECT_EQ(snap.Count(), 0u);
}

TEST(WindowedHistogramTest, PercentilesComeFromTheMergedShards) {
  WindowedHistogram w({.slot_ns = kSec, .num_slots = 64});
  // 1000 samples spread over 10 seconds: values 1..1000.
  for (int i = 0; i < 1000; ++i) {
    w.RecordAt(static_cast<double>(i + 1),
               static_cast<uint64_t>(i) * (10 * kSec / 1000));
  }
  Histogram snap;
  w.SnapshotWindowAt(20 * kSec, 10 * kSec, &snap);
  EXPECT_EQ(snap.Count(), 1000u);
  // Log-bucketed percentile: within one bucket (~9%) of the exact value.
  EXPECT_NEAR(snap.Percentile(50), 500.0, 500.0 * 0.10);
  EXPECT_NEAR(snap.Percentile(99), 990.0, 990.0 * 0.10);
}

TEST(WindowedCounterTest, SumTracksTheWindow) {
  WindowedCounter c(SmallRing());
  for (int s = 0; s < 6; ++s) {
    c.AddAt(10, static_cast<uint64_t>(s) * kSec + 1);
  }
  EXPECT_EQ(c.SumWindowAt(2 * kSec, 5 * kSec + 2), 20u);
  EXPECT_EQ(c.SumWindowAt(6 * kSec, 5 * kSec + 2), 60u);
  // An hour later everything has aged out.
  EXPECT_EQ(c.SumWindowAt(6 * kSec, 3600 * kSec), 0u);
}

TEST(WindowedCounterTest, ResetZeroesTheRing) {
  WindowedCounter c(SmallRing());
  c.AddAt(5, kSec);
  c.Reset();
  EXPECT_EQ(c.SumWindowAt(4 * kSec, kSec), 0u);
}

TEST(WindowedHistogramTest, ConcurrentRecordersDontLoseSamples) {
  // 4 threads x 10k records into the same live slot; rotation and the
  // lock-free record path must not drop or double-count. (TSan builds of
  // this test are the data-race oracle.)
  // One giant slot: no rotation mid-test.
  WindowedHistogram w({.slot_ns = 3600ull * kSec, .num_slots = 4});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&w, t] {
      for (int i = 0; i < kPerThread; ++i) {
        w.Record(static_cast<double>(t + 1));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Histogram snap;
  w.SnapshotWindow(3600ull * kSec, &snap);
  EXPECT_EQ(snap.Count(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(WindowedHistogramTest, ConcurrentRotationAndSnapshots) {
  // Recorders each walk 48 one-second ticks, so slots rotate while other
  // recorders and a reader touch the ring. 48 ticks on a 64-slot ring
  // recycle no slot, so every sample must survive into the final snapshot.
  WindowedHistogram w({.slot_ns = kSec, .num_slots = 64});
  constexpr int kThreads = 4;
  constexpr int kTicks = 48;
  constexpr int kPerTick = 200;
  constexpr uint64_t kBase = 1000 * kSec;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      Histogram snap;
      w.SnapshotWindowAt(kTicks * kSec, kBase + (kTicks - 1) * kSec, &snap);
      EXPECT_LE(snap.Count(),
                static_cast<uint64_t>(kThreads) * kTicks * kPerTick);
    }
  });
  std::vector<std::thread> recorders;
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&w, t] {
      for (int tick = 0; tick < kTicks; ++tick) {
        const uint64_t now = kBase + static_cast<uint64_t>(tick) * kSec;
        for (int i = 0; i < kPerTick; ++i) {
          w.RecordAt(static_cast<double>(t + 1), now);
        }
      }
    });
  }
  for (std::thread& t : recorders) t.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();
  Histogram snap;
  w.SnapshotWindowAt(kTicks * kSec, kBase + (kTicks - 1) * kSec, &snap);
  EXPECT_EQ(snap.Count(),
            static_cast<uint64_t>(kThreads) * kTicks * kPerTick);
}

}  // namespace
}  // namespace obs
}  // namespace dsig
