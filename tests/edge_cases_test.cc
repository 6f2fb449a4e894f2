// Cross-cutting edge cases: grid topologies (the paper's analytic setting,
// full of distance ties), parallel edges, degenerate datasets, and
// interactions the per-module tests don't reach.
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/full_index.h"
#include "baselines/ine.h"
#include "baselines/nvd/vn3.h"
#include "core/distance_ops.h"
#include "core/signature_builder.h"
#include "core/update.h"
#include "graph/ccam.h"
#include "graph/graph_generator.h"
#include "query/knn_query.h"
#include "query/range_query.h"
#include "tests/test_util.h"
#include "workload/dataset_generator.h"

namespace dsig {
namespace {

TEST(GridEdgeCaseTest, SignatureStackOnUniformGrid) {
  // The §5.1 setting: unit-weight grid, uniform objects. Ties are maximal
  // here (many equal-length paths), stressing comparison and sorting.
  const RoadNetwork g = MakeGrid({.width = 25, .height = 25});
  const std::vector<NodeId> objects = UniformDataset(g, 0.03, 3);
  const auto index = BuildSignatureIndex(g, objects, {.t = 3, .c = 2});
  const auto truth = testing_util::BruteForceDistances(g, objects);
  for (const NodeId n : testing_util::SampleNodes(g, 20, 1)) {
    for (uint32_t o = 0; o < objects.size(); ++o) {
      ASSERT_EQ(ExactDistance(*index, n, o), truth[o][n]);
    }
    // kNN distance multiset matches brute force despite ties.
    const KnnResult knn =
        SignatureKnnQuery(*index, n, 5, KnnResultType::kType1);
    std::vector<Weight> expected;
    for (const auto& row : truth) expected.push_back(row[n]);
    std::sort(expected.begin(), expected.end());
    expected.resize(5);
    EXPECT_EQ(knn.distances, expected);
  }
}

TEST(GridEdgeCaseTest, Vn3OnUniformGridMatchesIne) {
  const RoadNetwork g = MakeGrid({.width = 20, .height = 20});
  const std::vector<NodeId> objects = UniformDataset(g, 0.04, 5);
  const Vn3Index vn3(g, objects);
  const IneSearch ine(&g, objects, nullptr);
  for (const NodeId q : testing_util::SampleNodes(g, 15, 2)) {
    const auto got = vn3.Knn(q, 4);
    const IneResult expected = ine.Knn(q, 4);
    ASSERT_EQ(got.size(), expected.objects.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].first, expected.objects[i].first);
    }
  }
}

TEST(ParallelEdgeTest, SignatureStackHandlesParallelEdges) {
  // Two roads between the same junctions with different weights: the
  // backtracking link must select the correct slot.
  RoadNetwork g;
  for (int i = 0; i < 5; ++i) g.AddNode({static_cast<double>(i), 0});
  g.AddEdge(0, 1, 5);
  g.AddEdge(0, 1, 2);  // faster parallel road
  g.AddEdge(1, 2, 3);
  g.AddEdge(2, 3, 1);
  g.AddEdge(3, 4, 4);
  g.AddEdge(0, 4, 20);
  const auto index = BuildSignatureIndex(g, {4}, {.t = 2, .c = 2});
  EXPECT_EQ(ExactDistance(*index, 0, 0), 10);  // 0-1(2)-2(3)-3(1)-4(4)
  EXPECT_EQ(ExactDistance(*index, 1, 0), 8);
}

TEST(ParallelEdgeTest, UpdatesOnParallelEdges) {
  RoadNetwork g;
  g.AddNode({0, 0});
  g.AddNode({1, 0});
  const EdgeId slow = g.AddEdge(0, 1, 9);
  g.AddEdge(0, 1, 4);
  auto index = BuildSignatureIndex(g, {1}, {.t = 2, .c = 2});
  EXPECT_EQ(ExactDistance(*index, 0, 0), 4);
  SignatureUpdater updater(&g, index.get());
  updater.SetEdgeWeight(slow, 1);  // the slow road becomes the fast one
  EXPECT_EQ(ExactDistance(*index, 0, 0), 1);
  updater.RemoveEdge(slow);
  EXPECT_EQ(ExactDistance(*index, 0, 0), 4);
}

TEST(DegenerateDatasetTest, SingleObject) {
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 200, .seed = 4});
  const NodeId object = 17;
  const auto index = BuildSignatureIndex(g, {object}, {.t = 5, .c = 2});
  const ShortestPathTree truth = RunDijkstra(g, object);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    EXPECT_EQ(ExactDistance(*index, n, 0), truth.dist[n]);
  }
  const KnnResult knn =
      SignatureKnnQuery(*index, 3, 5, KnnResultType::kType1);
  EXPECT_EQ(knn.objects.size(), 1u);
}

TEST(DegenerateDatasetTest, EveryNodeIsAnObject) {
  const RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId n = 0; n < g.num_nodes(); ++n) all[n] = n;
  const auto index = BuildSignatureIndex(g, all, {.t = 2, .c = 2});
  const auto truth = testing_util::BruteForceDistances(g, all);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const RangeQueryResult r = SignatureRangeQuery(*index, n, 6);
    std::vector<uint32_t> expected;
    for (uint32_t o = 0; o < all.size(); ++o) {
      if (truth[o][n] <= 6) expected.push_back(o);
    }
    EXPECT_EQ(r.objects, expected);
  }
}

TEST(StorageInteractionTest, AttachAfterUpdateUsesNewRowSizes) {
  RoadNetwork g = MakeRandomPlanar({.num_nodes = 500, .seed = 6});
  const std::vector<NodeId> objects = UniformDataset(g, 0.04, 6);
  auto index = BuildSignatureIndex(g, objects, {.t = 5, .c = 2});
  SignatureUpdater updater(&g, index.get());
  updater.SetEdgeWeight(3, g.edge_weight(3) + 4);

  // Re-attaching storage after updates must lay out the *current* encoded
  // rows; whole-row reads then charge consistently.
  BufferManager buffer(0);
  const std::vector<NodeId> order = ComputeCcamOrder(g, 64);
  const NetworkStore network(g, order, &buffer);
  index->AttachStorage(&buffer, &network, order);
  RowStage stage;
  for (const NodeId n : testing_util::SampleNodes(g, 10, 1)) {
    index->ReadRowStaged(n, &stage);
  }
  EXPECT_GT(buffer.stats().logical_accesses, 0u);
}

TEST(HeavyWeightTest, WideWeightSpectrum) {
  // Continental networks mix unit streets with 1000-unit highways; the
  // partition must span the whole spectrum without loss.
  const RoadNetwork g = MakeClusteredContinental(
      {.num_clusters = 4, .nodes_per_cluster = 150, .seed = 2});
  const std::vector<NodeId> objects = UniformDataset(g, 0.02, 2);
  const auto index = BuildSignatureIndex(g, objects, {.t = 10, .c = 2.7});
  const auto truth = testing_util::BruteForceDistances(g, objects);
  for (const NodeId n : testing_util::SampleNodes(g, 15, 3)) {
    for (uint32_t o = 0; o < objects.size(); ++o) {
      ASSERT_EQ(ExactDistance(*index, n, o), truth[o][n]);
    }
  }
}

TEST(HeavyWeightTest, PartitionCoversSpectrum) {
  const RoadNetwork g = MakeClusteredContinental(
      {.num_clusters = 3, .nodes_per_cluster = 100, .seed = 5});
  const std::vector<NodeId> objects = UniformDataset(g, 0.03, 5);
  const auto index = BuildSignatureIndex(g, objects, {.t = 5, .c = 2});
  // More than a handful of categories (long highways stretch the spectrum).
  EXPECT_GT(index->partition().num_categories(), 6);
}

}  // namespace
}  // namespace dsig
