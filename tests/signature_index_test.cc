#include "core/signature_index.h"

#include <gtest/gtest.h>

#include "core/distance_ops.h"
#include "core/signature_builder.h"
#include "graph/ccam.h"
#include "graph/graph_generator.h"
#include "query/range_query.h"
#include "tests/test_util.h"
#include "workload/dataset_generator.h"

namespace dsig {
namespace {

TEST(SignatureIndexTest, ReadEntryMatchesReadRow) {
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 300, .seed = 3});
  const std::vector<NodeId> objects = UniformDataset(g, 0.06, 3);
  const auto index = BuildSignatureIndex(g, objects, {.t = 5, .c = 2});
  for (const NodeId n : testing_util::SampleNodes(g, 15, 1)) {
    const SignatureRow row = testing_util::StagedRow(*index, n);
    for (uint32_t o = 0; o < objects.size(); ++o) {
      const SignatureEntry entry = index->ReadEntry(n, o);
      EXPECT_EQ(entry.category, row[o].category);
      EXPECT_EQ(entry.link, row[o].link);
      EXPECT_FALSE(entry.compressed);
    }
  }
}

TEST(SignatureIndexTest, StorageChargesRowPages) {
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 2000, .seed = 6});
  const std::vector<NodeId> objects = UniformDataset(g, 0.05, 6);
  const auto index = BuildSignatureIndex(g, objects, {.t = 5, .c = 2});
  BufferManager buffer(0);
  const std::vector<NodeId> order = ComputeCcamOrder(g, 64);
  const NetworkStore network(g, order, &buffer);
  index->AttachStorage(&buffer, &network, order);

  RowStage stage;
  index->ReadRowStaged(77, &stage);
  const uint64_t after_row = buffer.stats().logical_accesses;
  EXPECT_GE(after_row, 1u);
  index->ReadEntry(77, 0);
  // A single component costs exactly one page.
  EXPECT_EQ(buffer.stats().logical_accesses, after_row + 1);
}

TEST(SignatureIndexTest, BacktrackingChargesAdjacencyAndSignaturePages) {
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 1000, .seed = 7});
  const std::vector<NodeId> objects = UniformDataset(g, 0.02, 7);
  const auto index = BuildSignatureIndex(g, objects, {.t = 5, .c = 2});
  BufferManager buffer(0);
  const std::vector<NodeId> order = ComputeCcamOrder(g, 64);
  const NetworkStore network(g, order, &buffer);
  index->AttachStorage(&buffer, &network, order);

  buffer.ResetStats();
  // Find a node far from some object and retrieve the exact distance; every
  // backtracking hop charges pages.
  const NodeId n = order.back();
  uint32_t far_object = 0;
  const SignatureRow row = testing_util::StagedRow(*index, n);
  for (uint32_t o = 0; o < row.size(); ++o) {
    if (row[o].category > row[far_object].category) far_object = o;
  }
  buffer.ResetStats();
  ExactDistance(*index, n, far_object);
  EXPECT_GT(buffer.stats().logical_accesses, 2u);
}

TEST(SignatureIndexTest, CcamOrderReducesPhysicalReads) {
  // The same workload under CCAM order vs node-id order: clustering should
  // not lose (and normally wins) on physical page reads with a small buffer.
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 3000, .seed = 4});
  const std::vector<NodeId> objects = UniformDataset(g, 0.02, 4);
  const auto run = [&](const std::vector<NodeId>& order) {
    const auto index = BuildSignatureIndex(g, objects, {.t = 5, .c = 2});
    BufferManager buffer(16);
    const NetworkStore network(g, order, &buffer);
    index->AttachStorage(&buffer, &network, order);
    for (const NodeId q : testing_util::SampleNodes(g, 60, 2)) {
      SignatureRangeQuery(*index, q, 30);
    }
    return buffer.stats().physical_accesses;
  };
  std::vector<NodeId> identity(g.num_nodes());
  for (NodeId n = 0; n < g.num_nodes(); ++n) identity[n] = n;
  const uint64_t ccam = run(ComputeCcamOrder(g, 64));
  const uint64_t naive = run(identity);
  EXPECT_LE(ccam, naive + naive / 10);
}

TEST(SignatureIndexTest, ReplaceRowCountsChanges) {
  const RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  const std::vector<NodeId> objects = {1, 5};
  auto index = BuildSignatureIndex(g, objects, {.t = 4, .c = 2});
  const SignatureRow row = testing_util::StagedRow(*index, 0);
  // Writing the identical row back changes nothing.
  SignatureRow same = row;
  index->compressor().Compress(&same);
  EXPECT_EQ(index->ReplaceRow(0, same), 0u);
  // Bump one category: exactly one change.
  SignatureRow tweaked = row;
  tweaked[0].category = static_cast<uint8_t>(tweaked[0].category + 1);
  EXPECT_EQ(index->ReplaceRow(0, tweaked), 1u);
}

TEST(SignatureIndexTest, SizeStatsTrackReplaceRow) {
  const RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  auto index = BuildSignatureIndex(g, {1, 5}, {.t = 4, .c = 2});
  SignatureRow row = testing_util::StagedRow(*index, 0);
  index->ReplaceRow(0, row);  // resolved rewrite may change the stored size
  // Invariant: the running total always equals the sum over encoded rows.
  uint64_t total = 0;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    total += index->encoded_row(n).size_bits;
  }
  EXPECT_EQ(index->size_stats().compressed_bits, total);
}

}  // namespace
}  // namespace dsig
