#include <gtest/gtest.h>

#include "core/distance_ops.h"
#include "core/signature_builder.h"
#include "graph/ccam.h"
#include "graph/graph_generator.h"
#include "query/knn_query.h"
#include "query/range_query.h"
#include "tests/test_util.h"
#include "workload/dataset_generator.h"

namespace dsig {
namespace {

TEST(MergedStorageTest, QueriesAreSchemaIndependent) {
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 600, .seed = 3});
  const std::vector<NodeId> objects = UniformDataset(g, 0.04, 3);
  const auto index = BuildSignatureIndex(g, objects, {.t = 5, .c = 2});
  const std::vector<NodeId> order = ComputeCcamOrder(g, 64);
  BufferManager buffer(64);
  const NetworkStore network(g, order, &buffer);

  // Results must be identical regardless of schema; only charging differs.
  index->AttachStorage(&buffer, &network, order);
  std::vector<std::vector<uint32_t>> separate_results;
  for (const NodeId q : testing_util::SampleNodes(g, 10, 1)) {
    separate_results.push_back(SignatureRangeQuery(*index, q, 40).objects);
  }
  index->AttachMergedStorage(&buffer, order);
  size_t i = 0;
  for (const NodeId q : testing_util::SampleNodes(g, 10, 1)) {
    EXPECT_EQ(SignatureRangeQuery(*index, q, 40).objects,
              separate_results[i++]);
  }
}

TEST(MergedStorageTest, MergedChargesCombinedRecords) {
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 800, .seed = 5});
  const std::vector<NodeId> objects = UniformDataset(g, 0.03, 5);
  const auto index = BuildSignatureIndex(g, objects, {.t = 5, .c = 2});
  const std::vector<NodeId> order = ComputeCcamOrder(g, 64);
  BufferManager buffer(0);
  index->AttachMergedStorage(&buffer, order);
  EXPECT_TRUE(index->merged_storage());

  buffer.Clear();
  RowStage stage;
  index->ReadRowStaged(17, &stage);
  EXPECT_GE(buffer.stats().logical_accesses, 1u);

  // In merged mode a backtracking step's adjacency + component read usually
  // lands on the same combined record, so the step should cost at most the
  // two touches it makes (often hitting the same page).
  buffer.Clear();
  ExactDistance(*index, order.back(), 0);
  EXPECT_GT(buffer.stats().logical_accesses, 0u);
}

TEST(MergedStorageTest, SwitchingSchemasBackAndForth) {
  const RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  const auto index = BuildSignatureIndex(g, {1, 5}, {.t = 4, .c = 2});
  std::vector<NodeId> order(g.num_nodes());
  for (NodeId n = 0; n < g.num_nodes(); ++n) order[n] = n;
  BufferManager buffer(8);
  const NetworkStore network(g, order, &buffer);

  index->AttachMergedStorage(&buffer, order);
  EXPECT_TRUE(index->merged_storage());
  const Weight d1 = ExactDistance(*index, 0, 0);
  index->AttachStorage(&buffer, &network, order);
  EXPECT_FALSE(index->merged_storage());
  const Weight d2 = ExactDistance(*index, 0, 0);
  EXPECT_EQ(d1, d2);
}

TEST(MergedStorageTest, MergedBeatsSeparateOnBacktrackingHeavyWork) {
  // Backtracking reads adjacency and signature of the same node; merged
  // schema puts them on the same record, so cold physical reads drop.
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 3000, .seed = 7});
  const std::vector<NodeId> objects = UniformDataset(g, 0.01, 7);
  const auto index = BuildSignatureIndex(g, objects, {.t = 5, .c = 2});
  const std::vector<NodeId> order = ComputeCcamOrder(g, 64);
  const std::vector<NodeId> queries = testing_util::SampleNodes(g, 40, 2);

  BufferManager buffer(32);
  const NetworkStore network(g, order, &buffer);
  index->AttachStorage(&buffer, &network, order);
  buffer.Clear();
  for (const NodeId q : queries) {
    SignatureKnnQuery(*index, q, 5, KnnResultType::kType1);
  }
  const uint64_t separate = buffer.stats().physical_accesses;

  index->AttachMergedStorage(&buffer, order);
  buffer.Clear();
  for (const NodeId q : queries) {
    SignatureKnnQuery(*index, q, 5, KnnResultType::kType1);
  }
  const uint64_t merged = buffer.stats().physical_accesses;
  EXPECT_LT(merged, separate + separate / 5);
}

}  // namespace
}  // namespace dsig
