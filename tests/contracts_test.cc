// Contract (death) tests and coverage for rarely-hit paths: truncated
// persistence files, degenerate NVD shapes, codec part round-trips, and
// bit-stream bounds.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "baselines/nvd/vn3.h"
#include "core/signature_builder.h"
#include "graph/dijkstra.h"
#include "graph/graph_generator.h"
#include "io/persistence.h"
#include "tests/test_util.h"
#include "util/bitstream.h"
#include "util/huffman.h"
#include "workload/dataset_generator.h"

namespace dsig {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(BitstreamContractTest, ReadingPastEndDies) {
  BitWriter writer;
  writer.WriteBits(0xFF, 8);
  BitReader reader(writer.bytes().data(), writer.size_bits());
  reader.ReadBits(8);
  EXPECT_DEATH(reader.ReadBits(1), "Check failed");
}

TEST(BitstreamContractTest, SeekPastEndDies) {
  BitWriter writer;
  writer.WriteBits(0, 4);
  BitReader reader(writer.bytes().data(), writer.size_bits());
  EXPECT_DEATH(reader.Seek(5), "Check failed");
}

TEST(HuffmanContractTest, FromPartsRoundTripsAllFactories) {
  for (int m : {1, 2, 5, 17}) {
    for (int variant = 0; variant < 3; ++variant) {
      const HuffmanCode original =
          variant == 0   ? HuffmanCode::FixedLength(m)
          : variant == 1 ? HuffmanCode::ReverseZeroPadding(m)
                         : HuffmanCode::FromFrequencies(std::vector<uint64_t>(
                               static_cast<size_t>(m), 7));
      std::vector<int> lengths;
      std::vector<uint64_t> codes;
      for (int s = 0; s < m; ++s) {
        lengths.push_back(original.length(s));
        codes.push_back(original.code(s));
      }
      const HuffmanCode restored = HuffmanCode::FromParts(lengths, codes);
      BitWriter writer;
      for (int s = 0; s < m; ++s) original.Encode(s, &writer);
      BitReader reader(writer.bytes().data(), writer.size_bits());
      for (int s = 0; s < m; ++s) {
        int decoded = -1;
        ASSERT_TRUE(restored.TryDecode(&reader, &decoded));
        EXPECT_EQ(decoded, s) << "m=" << m << " v=" << variant;
      }
    }
  }
}

TEST(HuffmanContractTest, NonPrefixPartsDie) {
  // "0" is a prefix of "01": FromParts must reject it.
  EXPECT_DEATH(HuffmanCode::FromParts({1, 2}, {0, 0b10}), "Check failed");
}

TEST(PersistenceContractTest, TruncatedIndexFileIsARecoverableError) {
  const RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  const auto index = BuildSignatureIndex(g, {1, 5}, {.t = 4, .c = 2});
  const std::string path = TempPath("trunc.idx");
  ASSERT_TRUE(SaveSignatureIndex(*index, path).ok());
  // Truncate to half: the header validates, but the damage must surface as a
  // kCorruption status — never an abort, never a silently-corrupt index.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  const auto loaded = LoadSignatureIndex(g, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(Vn3ContractTest, SingleObjectDataset) {
  // One generator: no borders, no cross edges — queries still work.
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 300, .seed = 4});
  const Vn3Index vn3(g, {17});
  const ShortestPathTree truth = RunDijkstra(g, 17);
  for (const NodeId q : testing_util::SampleNodes(g, 10, 1)) {
    const auto knn = vn3.Knn(q, 3);  // k clamps to 1
    ASSERT_EQ(knn.size(), 1u);
    EXPECT_EQ(knn[0].first, truth.dist[q]);
    EXPECT_EQ(knn[0].second, 0u);
  }
}

TEST(Vn3ContractTest, TwoAdjacentObjects) {
  RoadNetwork g;
  g.AddNode({0, 0});
  g.AddNode({1, 0});
  g.AddNode({2, 0});
  g.AddEdge(0, 1, 3);
  g.AddEdge(1, 2, 4);
  const Vn3Index vn3(g, {0, 2});
  const auto knn = vn3.Knn(1, 2);
  ASSERT_EQ(knn.size(), 2u);
  EXPECT_EQ(knn[0].first, 3);
  EXPECT_EQ(knn[1].first, 4);
}

TEST(DijkstraContractTest, AllNodesAsMultiSource) {
  const RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId n = 0; n < g.num_nodes(); ++n) all[n] = n;
  const ShortestPathTree tree = RunDijkstraMultiSource(g, all);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    EXPECT_EQ(tree.dist[n], 0);
    EXPECT_EQ(tree.owner[n], n);
  }
}

TEST(BuilderContractTest, DuplicateObjectsDie) {
  const RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  EXPECT_DEATH(BuildSignatureIndex(g, {1, 1}, {.t = 4, .c = 2}),
               "duplicate object");
}

TEST(BuilderContractTest, DisconnectedNetworkDies) {
  RoadNetwork g;
  g.AddNode({0, 0});
  g.AddNode({1, 0});
  g.AddNode({5, 0});
  g.AddEdge(0, 1, 1);  // node 2 unreachable
  EXPECT_DEATH(BuildSignatureIndex(g, {0}, {.t = 2, .c = 2}),
               "disconnected|connected");
}

TEST(PartitionContractTest, InvalidParametersDie) {
  EXPECT_DEATH(CategoryPartition::Exponential(0, 2, 100), "Check failed");
  EXPECT_DEATH(CategoryPartition::Exponential(5, 1, 100), "Check failed");
  EXPECT_DEATH(CategoryPartition::FromBoundaries({5, 3}), "Check failed");
}

}  // namespace
}  // namespace dsig
