#include "core/signature_builder.h"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/dijkstra.h"
#include "graph/graph_generator.h"
#include "tests/test_util.h"
#include "workload/dataset_generator.h"

namespace dsig {
namespace {

TEST(SignatureBuilderTest, CategoriesMatchTrueDistances) {
  const RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  const std::vector<NodeId> objects = {1, 5, 6};
  const auto index = BuildSignatureIndex(g, objects, {.t = 4, .c = 2});
  const auto truth = testing_util::BruteForceDistances(g, objects);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const SignatureRow row = testing_util::StagedRow(*index, n);
    ASSERT_EQ(row.size(), objects.size());
    for (uint32_t o = 0; o < objects.size(); ++o) {
      EXPECT_EQ(row[o].category,
                index->partition().CategoryOf(truth[o][n]))
          << "node " << n << " object " << o;
    }
  }
}

TEST(SignatureBuilderTest, LinksPointAlongShortestPaths) {
  const RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  const std::vector<NodeId> objects = {1, 5, 6};
  const auto index = BuildSignatureIndex(g, objects, {.t = 4, .c = 2});
  const auto truth = testing_util::BruteForceDistances(g, objects);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const SignatureRow row = testing_util::StagedRow(*index, n);
    for (uint32_t o = 0; o < objects.size(); ++o) {
      if (objects[o] == n) continue;
      // Following the link must decrease the true distance by exactly the
      // edge weight (the definition of a shortest-path next hop).
      const AdjacencyEntry& hop = g.adjacency(n)[row[o].link];
      EXPECT_FALSE(hop.removed);
      EXPECT_EQ(truth[o][hop.to] + hop.weight, truth[o][n])
          << "node " << n << " object " << o;
    }
  }
}

TEST(SignatureBuilderTest, ObjectTableMatchesTruth) {
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 300, .seed = 8});
  const std::vector<NodeId> objects = UniformDataset(g, 0.05, 1);
  const auto index = BuildSignatureIndex(g, objects, {.t = 5, .c = 2});
  const auto truth = testing_util::BruteForceDistances(g, objects);
  const int last = index->partition().num_categories() - 1;
  for (uint32_t u = 0; u < objects.size(); ++u) {
    for (uint32_t v = 0; v < objects.size(); ++v) {
      const Weight d = truth[u][objects[v]];
      if (u == v) {
        EXPECT_EQ(index->object_table().Get(u, v), 0);
      } else if (index->partition().CategoryOf(d) == last) {
        EXPECT_TRUE(index->object_table().IsFar(u, v));
      } else {
        EXPECT_EQ(index->object_table().Get(u, v), d);
      }
    }
  }
}

TEST(SignatureBuilderTest, SizeStatsAreConsistent) {
  // Dataset large enough that within-row compression beats its flag
  // overhead (tiny datasets can legitimately inflate; see bench_encoding).
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 800, .seed = 3});
  const std::vector<NodeId> objects = UniformDataset(g, 0.08, 9);
  const auto index = BuildSignatureIndex(g, objects, {.t = 5, .c = 2});
  const SignatureSizeStats& stats = index->size_stats();
  EXPECT_EQ(stats.entries, g.num_nodes() * objects.size());
  // Entropy coding must not expand, and compression must not expand either.
  EXPECT_LT(stats.encoded_bits, stats.raw_bits);
  EXPECT_LT(stats.compressed_bits, stats.encoded_bits);
  EXPECT_GT(stats.compressed_entries, 0u);
  EXPECT_EQ(index->IndexBytes(), (stats.compressed_bits + 7) / 8);
}

TEST(SignatureBuilderTest, ObjectsAtTheirOwnNodes) {
  const RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  const auto index = BuildSignatureIndex(g, {2, 4}, {.t = 4, .c = 2});
  EXPECT_EQ(index->object_at(2), 0u);
  EXPECT_EQ(index->object_at(4), 1u);
  EXPECT_EQ(index->object_at(0), kInvalidObject);
  EXPECT_EQ(index->object_node(0), 2u);
  EXPECT_EQ(index->object_node(1), 4u);
  // The object's own entry is category 0.
  EXPECT_EQ(testing_util::StagedRow(*index, 2)[0].category, 0);
  EXPECT_EQ(testing_util::StagedRow(*index, 4)[1].category, 0);
}

TEST(SignatureBuilderTest, KeepForestFlag) {
  const RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  const auto with =
      BuildSignatureIndex(g, {1}, {.t = 4, .c = 2, .keep_forest = true});
  EXPECT_NE(with->forest(), nullptr);
  const auto without =
      BuildSignatureIndex(g, {1}, {.t = 4, .c = 2, .keep_forest = false});
  EXPECT_EQ(without->forest(), nullptr);
}

TEST(SignatureBuilderTest, OptimalPartitionDerivesFromSpreading) {
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 300, .seed = 4});
  const std::vector<NodeId> objects = UniformDataset(g, 0.05, 4);
  const auto index = BuildSignatureIndex(
      g, objects,
      {.optimal_partition = true, .spreading_bound = 400});
  EXPECT_NEAR(index->partition().c(), 2.718281828459045, 1e-9);
  EXPECT_NEAR(index->partition().t(), std::sqrt(400 / 2.718281828459045),
              1e-6);
}

TEST(SignatureBuilderTest, HuffmanCodeKindBuilds) {
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 300, .seed = 6});
  const std::vector<NodeId> objects = UniformDataset(g, 0.05, 6);
  const auto rzp = BuildSignatureIndex(
      g, objects,
      {.t = 5, .c = 2, .code_kind = CategoryCodeKind::kReverseZeroPadding});
  const auto huffman = BuildSignatureIndex(
      g, objects, {.t = 5, .c = 2, .code_kind = CategoryCodeKind::kHuffman});
  // Huffman is optimal, so it cannot be worse than RZP.
  EXPECT_LE(huffman->size_stats().encoded_bits,
            rzp->size_stats().encoded_bits);
  // Both must decode identically.
  for (const NodeId n : testing_util::SampleNodes(g, 10, 1)) {
    EXPECT_EQ(testing_util::StagedRow(*rzp, n),
              testing_util::StagedRow(*huffman, n));
  }
}

}  // namespace
}  // namespace dsig
