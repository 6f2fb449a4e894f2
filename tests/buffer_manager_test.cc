#include "storage/buffer_manager.h"

#include <gtest/gtest.h>

namespace dsig {
namespace {

TEST(BufferManagerTest, ColdAccessesMiss) {
  BufferManager buffer(4);
  const FileId f = buffer.RegisterFile();
  EXPECT_FALSE(buffer.Access(f, 0));
  EXPECT_FALSE(buffer.Access(f, 1));
  EXPECT_EQ(buffer.stats().logical_accesses, 2u);
  EXPECT_EQ(buffer.stats().physical_accesses, 2u);
}

TEST(BufferManagerTest, RepeatAccessHits) {
  BufferManager buffer(4);
  const FileId f = buffer.RegisterFile();
  buffer.Access(f, 7);
  EXPECT_TRUE(buffer.Access(f, 7));
  EXPECT_EQ(buffer.stats().logical_accesses, 2u);
  EXPECT_EQ(buffer.stats().physical_accesses, 1u);
}

TEST(BufferManagerTest, LruEviction) {
  BufferManager buffer(2);
  const FileId f = buffer.RegisterFile();
  buffer.Access(f, 1);
  buffer.Access(f, 2);
  buffer.Access(f, 3);  // evicts 1, cache = {2, 3}
  EXPECT_TRUE(buffer.Access(f, 2));
  EXPECT_TRUE(buffer.Access(f, 3));
  EXPECT_FALSE(buffer.Access(f, 1));  // was evicted; re-admitting evicts 2
  EXPECT_FALSE(buffer.Access(f, 2));
}

TEST(BufferManagerTest, TouchRefreshesRecency) {
  BufferManager buffer(2);
  const FileId f = buffer.RegisterFile();
  buffer.Access(f, 1);
  buffer.Access(f, 2);
  buffer.Access(f, 1);  // 1 becomes most recent
  buffer.Access(f, 3);  // evicts 2, not 1
  EXPECT_TRUE(buffer.Access(f, 1));
}

TEST(BufferManagerTest, FilesAreIndependentNamespaces) {
  BufferManager buffer(10);
  const FileId a = buffer.RegisterFile();
  const FileId b = buffer.RegisterFile();
  buffer.Access(a, 5);
  EXPECT_FALSE(buffer.Access(b, 5));  // same page id, different file
  EXPECT_TRUE(buffer.Access(a, 5));
}

TEST(BufferManagerTest, ZeroCapacityDisablesCaching) {
  BufferManager buffer(0);
  const FileId f = buffer.RegisterFile();
  buffer.Access(f, 1);
  EXPECT_FALSE(buffer.Access(f, 1));
  EXPECT_EQ(buffer.stats().physical_accesses, 2u);
}

TEST(BufferManagerTest, ResetStatsKeepsContents) {
  BufferManager buffer(4);
  const FileId f = buffer.RegisterFile();
  buffer.Access(f, 1);
  buffer.ResetStats();
  EXPECT_EQ(buffer.stats().logical_accesses, 0u);
  EXPECT_TRUE(buffer.Access(f, 1));  // still cached
}

TEST(BufferManagerTest, ClearDropsContents) {
  BufferManager buffer(4);
  const FileId f = buffer.RegisterFile();
  buffer.Access(f, 1);
  buffer.Clear();
  EXPECT_FALSE(buffer.Access(f, 1));
}

TEST(BufferManagerTest, EvictionsAreCounted) {
  BufferManager buffer(2);
  const FileId f = buffer.RegisterFile();
  buffer.Access(f, 1);
  buffer.Access(f, 2);
  EXPECT_EQ(buffer.stats().evictions, 0u);
  buffer.Access(f, 3);  // capacity 2: admitting 3 evicts 1
  EXPECT_EQ(buffer.stats().evictions, 1u);
  buffer.Access(f, 3);  // hit, no eviction
  EXPECT_EQ(buffer.stats().evictions, 1u);
}

TEST(BufferManagerTest, AccessesChargeTheRegistryCounters) {
  const obs::BufferPoolMetrics& m = obs::GlobalBufferPoolMetrics();
  const obs::BufferPoolTotalsSnapshot before = m.Snapshot();
  BufferManager buffer(1);
  const FileId f = buffer.RegisterFile();
  buffer.Access(f, 1);  // miss
  buffer.Access(f, 1);  // hit
  buffer.Access(f, 2);  // miss that evicts page 1
  const obs::BufferPoolTotalsSnapshot after = m.Snapshot();
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_EQ(after.misses - before.misses, 2u);
  EXPECT_EQ(after.evictions - before.evictions, 1u);
}

TEST(BufferManagerTest, StatsForEachVisitsEveryField) {
  BufferStats s{10, 6, 3, 2};
  uint64_t sum = 0;
  size_t count = 0;
  s.ForEach([&](const char* name, uint64_t value) {
    (void)name;
    sum += value;
    ++count;
  });
  EXPECT_EQ(count, sizeof(BufferStats) / sizeof(uint64_t));
  EXPECT_EQ(sum, 21u);
}

TEST(BufferManagerTest, StatsSubtraction) {
  BufferStats a{10, 6, 3};
  BufferStats b{4, 2, 1};
  const BufferStats d = a - b;
  EXPECT_EQ(d.logical_accesses, 6u);
  EXPECT_EQ(d.physical_accesses, 4u);
  EXPECT_EQ(d.failed_reads, 2u);
}

TEST(BufferManagerTest, InjectedReadFaultsAreCountedAndNotCached) {
  BufferManager buffer(4);
  const FileId f = buffer.RegisterFile();
  // Fail every physical read of page 3; other pages behave normally.
  buffer.SetReadFaultInjector(
      [](FileId, PageId page) { return page == 3; });

  EXPECT_FALSE(buffer.Access(f, 3));
  EXPECT_FALSE(buffer.Access(f, 3));  // still not cached: each retry re-reads
  EXPECT_EQ(buffer.stats().failed_reads, 2u);
  EXPECT_EQ(buffer.stats().physical_accesses, 2u);

  EXPECT_FALSE(buffer.Access(f, 1));  // healthy page: normal miss…
  EXPECT_TRUE(buffer.Access(f, 1));   // …then hit
  EXPECT_EQ(buffer.stats().failed_reads, 2u);

  // Disarmed: page 3 reads recover and cache again.
  buffer.SetReadFaultInjector(nullptr);
  EXPECT_FALSE(buffer.Access(f, 3));
  EXPECT_TRUE(buffer.Access(f, 3));
  EXPECT_EQ(buffer.stats().failed_reads, 2u);
}

TEST(BufferManagerTest, InjectedFaultsWithZeroCapacityStillCount) {
  BufferManager buffer(0);
  const FileId f = buffer.RegisterFile();
  buffer.SetReadFaultInjector([](FileId, PageId) { return true; });
  EXPECT_FALSE(buffer.Access(f, 0));
  EXPECT_FALSE(buffer.Access(f, 1));
  EXPECT_EQ(buffer.stats().failed_reads, 2u);
  EXPECT_EQ(buffer.stats().physical_accesses, 2u);
}

}  // namespace
}  // namespace dsig
