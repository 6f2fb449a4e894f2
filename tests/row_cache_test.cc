// RowCache behavior: LRU eviction order, the byte budget, the keep-one rule,
// the disabled (budget 0) bypass — plus the regression the cache exists for:
// a working set one row over the old wholesale-wipe threshold must degrade by
// exactly one eviction, not lose everything. RowStageTest checks that a
// cached copy owns its lanes. The index-level tests at the bottom check that
// updates invalidate cached resolved rows and that rows recomputed after
// decode faults stay inside the cache budget.
#include "core/row_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/distance_ops.h"
#include "core/signature_builder.h"
#include "core/update.h"
#include "graph/graph_generator.h"
#include "tests/test_util.h"
#include "workload/dataset_generator.h"

namespace dsig {
namespace {

std::shared_ptr<const RowStage> MakeRow(size_t entries) {
  auto row = std::make_shared<RowStage>();
  row->Resize(entries);
  return row;
}

// What the cache charges for one row of `entries` entries: the lanes plus a
// fixed per-row overhead.
size_t RowBytes(size_t entries) { return MakeRow(entries)->lane_bytes() + 96; }

// One shard makes LRU order across keys observable.
RowCache::Options SingleShard(size_t byte_budget) {
  return {.byte_budget = byte_budget, .num_shards = 1};
}

TEST(RowCacheTest, MissThenHit) {
  RowCache cache(SingleShard(1 << 20));
  EXPECT_EQ(cache.Get(7), nullptr);
  auto row = MakeRow(4);
  cache.Put(7, row);
  const auto got = cache.Get(7);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got.get(), row.get());
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(RowCacheTest, EvictsColdestFirst) {
  // Budget fits exactly 3 of these rows; inserting a 4th evicts the LRU one.
  const size_t row_bytes = RowBytes(4);
  RowCache cache(SingleShard(3 * row_bytes));
  cache.Put(1, MakeRow(4));
  cache.Put(2, MakeRow(4));
  cache.Put(3, MakeRow(4));
  EXPECT_EQ(cache.entries(), 3u);
  // Touch 1 so 2 becomes the coldest.
  EXPECT_NE(cache.Get(1), nullptr);
  cache.Put(4, MakeRow(4));
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(cache.Get(2), nullptr);  // evicted
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
  EXPECT_NE(cache.Get(4), nullptr);
}

TEST(RowCacheTest, WorkingSetOneOverBudgetLosesExactlyOneRow) {
  // Regression: the pre-cache memo wiped EVERYTHING when full, so a working
  // set one row over the cap got a 0% hit rate. Now exactly one row goes.
  const size_t row_bytes = RowBytes(8);
  const size_t w = 16;
  RowCache cache(SingleShard(w * row_bytes));
  for (NodeId n = 0; n < w; ++n) cache.Put(n, MakeRow(8));
  EXPECT_EQ(cache.entries(), w);
  // Touch the whole set (0 is now coldest again after the sweep).
  for (NodeId n = 0; n < w; ++n) EXPECT_NE(cache.Get(n), nullptr);
  cache.Put(w, MakeRow(8));  // one over budget
  EXPECT_EQ(cache.entries(), w);  // exactly one eviction...
  EXPECT_EQ(cache.Get(0), nullptr);  // ...of the coldest row
  for (NodeId n = 1; n <= w; ++n) {
    EXPECT_NE(cache.Get(n), nullptr) << "node " << n;
  }
}

TEST(RowCacheTest, StaysWithinByteBudget) {
  const size_t budget = 4096;
  RowCache cache(SingleShard(budget));
  for (NodeId n = 0; n < 200; ++n) cache.Put(n, MakeRow(16));
  EXPECT_LE(cache.bytes(), budget);
  EXPECT_GT(cache.entries(), 0u);
}

TEST(RowCacheTest, KeepsMostRecentRowEvenWhenOversized) {
  RowCache cache(SingleShard(64));  // smaller than any row
  cache.Put(1, MakeRow(1000));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_NE(cache.Get(1), nullptr);
  cache.Put(2, MakeRow(1000));  // replaces 1 as the single survivor
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(2), nullptr);
}

TEST(RowCacheTest, ReplacingAKeyUpdatesBytes) {
  RowCache cache(SingleShard(1 << 20));
  cache.Put(5, MakeRow(10));
  const size_t small = cache.bytes();
  cache.Put(5, MakeRow(100));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_GT(cache.bytes(), small);
  cache.Put(5, MakeRow(10));
  EXPECT_EQ(cache.bytes(), small);
}

TEST(RowCacheTest, EraseAndClear) {
  RowCache cache(SingleShard(1 << 20));
  cache.Put(1, MakeRow(4));
  cache.Put(2, MakeRow(4));
  cache.Erase(1);
  cache.Erase(99);  // absent: no-op
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(2), nullptr);
  EXPECT_EQ(cache.entries(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.Get(2), nullptr);
}

TEST(RowCacheTest, ZeroBudgetDisablesCaching) {
  RowCache cache(SingleShard(0));
  cache.Put(1, MakeRow(4));
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(RowCacheTest, ShardsPartitionTheBudget) {
  const size_t row_bytes = RowBytes(4);
  RowCache cache({.byte_budget = 4 * row_bytes, .num_shards = 4});
  // All keys land in shard 0 (multiples of 4): only that shard's quarter of
  // the budget is available, so one row fits (plus the keep-one rule).
  cache.Put(0, MakeRow(4));
  cache.Put(4, MakeRow(4));
  cache.Put(8, MakeRow(4));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_NE(cache.Get(8), nullptr);
}

TEST(RowStageTest, CopyOwnsAlignedLanes) {
  RowStage source;
  source.Resize(300);  // spare capacity a copy must not inherit
  source.Resize(100);
  for (uint32_t i = 0; i < 100; ++i) {
    source.categories()[i] = static_cast<uint8_t>(i);
    source.links()[i] = static_cast<uint8_t>(i + 1);
    source.flags()[i] = static_cast<uint8_t>(i % 2);
  }
  source.set_any_compressed(true);
  source.index_scratch();
  const RowStage copy = source;
  RowStage assigned;
  assigned = source;

  // Refill the source in place, as a query thread refills its scratch stage.
  source.Resize(100);
  for (uint32_t i = 0; i < 100; ++i) {
    source.categories()[i] = 0xEE;
    source.links()[i] = 0xEE;
    source.flags()[i] = 0;
  }
  const RowStage* const copies[] = {&copy, &assigned};
  for (const RowStage* stage : copies) {
    ASSERT_EQ(stage->size(), 100u);
    EXPECT_TRUE(stage->any_compressed());
    for (const uint8_t* lane :
         {stage->categories(), stage->links(), stage->flags()}) {
      EXPECT_EQ(reinterpret_cast<uintptr_t>(lane) % 64, 0u);
    }
    for (uint32_t i = 0; i < 100; ++i) {
      ASSERT_EQ(stage->categories()[i], i);
      ASSERT_EQ(stage->links()[i], i + 1);
      ASSERT_EQ(stage->flags()[i], i % 2);
    }
  }
  // A fresh copy holds the three lanes only: 3 x 128 bytes plus alignment
  // slack.
  EXPECT_EQ(copy.lane_bytes(), 3 * 128u + 64u);
}

// --- Index integration: updates invalidate cached resolved rows ------------

TEST(RowCacheIndexTest, EdgeUpdateInvalidatesCachedRows) {
  RoadNetwork g = MakeRandomPlanar({.num_nodes = 400, .seed = 11});
  const std::vector<NodeId> objects = UniformDataset(g, 0.03, 11);
  auto index = BuildSignatureIndex(
      g, objects, {.t = 10, .c = 2.7, .keep_forest = true});
  ASSERT_GT(index->size_stats().compressed_entries, 0u)
      << "test needs compressed entries for the cache to be on the read path";

  // Warm the resolved-row cache by reading every (node, object) entry.
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    for (uint32_t o = 0; o < objects.size(); ++o) {
      ExactDistance(*index, n, o);
    }
  }
  ASSERT_GT(index->row_cache().entries(), 0u)
      << "warmup never populated the cache";

  // Mutate the graph through the updater; the rewritten rows must not be
  // served from stale cached copies.
  SignatureUpdater updater(&g, index.get());
  ASSERT_FALSE(g.adjacency(objects[0]).empty());
  const EdgeId edge = g.adjacency(objects[0])[0].edge_id;
  ASSERT_NE(edge, kInvalidEdge);
  updater.SetEdgeWeight(edge, 1);

  const auto truth = testing_util::BruteForceDistances(g, objects);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    for (uint32_t o = 0; o < objects.size(); ++o) {
      ASSERT_EQ(ExactDistance(*index, n, o), truth[o][n])
          << "stale distance at node " << n << " object " << o;
    }
  }
}

TEST(RowCacheIndexTest, ConfigureRowCacheZeroBudgetStillAnswersCorrectly) {
  RoadNetwork g = MakeRandomPlanar({.num_nodes = 300, .seed = 12});
  const std::vector<NodeId> objects = UniformDataset(g, 0.03, 12);
  auto index = BuildSignatureIndex(g, objects, {.t = 10, .c = 2.7});
  const auto truth = testing_util::BruteForceDistances(g, objects);
  index->ConfigureRowCache({.byte_budget = 0});
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    for (uint32_t o = 0; o < objects.size(); ++o) {
      ASSERT_EQ(ExactDistance(*index, n, o), truth[o][n]);
    }
  }
  EXPECT_EQ(index->row_cache().entries(), 0u);
}

// Rows recomputed after decode faults share the cache's byte budget: with
// every row corrupt and a budget for about a quarter of them, concurrent
// readers stay exact while the cache stays bounded.
TEST(RowCacheIndexTest, FallbackRowsStayWithinBudget) {
  RoadNetwork g = MakeRandomPlanar({.num_nodes = 200, .seed = 21});
  const std::vector<NodeId> objects = UniformDataset(g, 0.04, 21);
  ASSERT_GE(objects.size(), 4u);
  auto index = BuildSignatureIndex(g, objects, {.t = 10, .c = 2.7});
  const RowCache::Options options{
      .byte_budget = g.num_nodes() / 4 * RowBytes(objects.size()),
      .num_shards = 8};
  index->ConfigureRowCache(options);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    index->mutable_encoded_row(n).size_bits = 0;
  }
  const auto truth = testing_util::BruteForceDistances(g, objects);

  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      RowStage stage;
      for (NodeId i = 0; i < g.num_nodes(); ++i) {
        // Threads start at different nodes so their misses interleave.
        const NodeId n = (i + t * 50) % g.num_nodes();
        index->ReadRowStaged(n, &stage);
        for (uint32_t o = 0; o < objects.size(); ++o) {
          if (stage.categories()[o] !=
                  index->partition().CategoryOf(truth[o][n]) ||
              ExactDistance(*index, n, o) != truth[o][n]) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(index->row_cache().entries(), 0u);
  EXPECT_LE(index->row_cache().bytes(),
            options.byte_budget +
                options.num_shards * RowBytes(objects.size()));
}

}  // namespace
}  // namespace dsig
