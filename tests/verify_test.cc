// SignatureIndex::Verify must accept every freshly built index and detect
// each class of seeded violation: undecodable bits, out-of-range links,
// categories that disagree with the link-chain distance, and link cycles.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/signature_builder.h"
#include "core/signature_index.h"
#include "graph/graph_generator.h"
#include "tests/test_util.h"
#include "util/status.h"
#include "workload/dataset_generator.h"

namespace dsig {
namespace {

struct Fixture {
  RoadNetwork graph;
  std::vector<NodeId> objects;
  std::unique_ptr<SignatureIndex> index;
};

Fixture MakeFixture(uint64_t seed) {
  Fixture f;
  f.graph = MakeRandomPlanar({.num_nodes = 120, .seed = seed});
  f.objects = UniformDataset(f.graph, 0.06, seed);
  f.index = BuildSignatureIndex(f.graph, f.objects, {.t = 5, .c = 2});
  return f;
}

// Re-encodes `row` (fully resolved) as node `n`'s stored row.
void ReplaceRowBits(SignatureIndex* index, NodeId n, const SignatureRow& row) {
  index->mutable_encoded_row(n) = index->codec().EncodeRow(row);
}

// A node that carries no object, with an adjacent node that also carries
// none (so link edits never touch the trivial own-node entries).
NodeId NonObjectNode(const Fixture& f) {
  for (NodeId n = 0; n < f.graph.num_nodes(); ++n) {
    if (f.index->object_at(n) == kInvalidObject) return n;
  }
  ADD_FAILURE() << "fixture has objects on every node";
  return 0;
}

TEST(VerifyTest, FreshIndexesAreClean) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const Fixture f = MakeFixture(seed);
    const Status status = f.index->Verify();
    EXPECT_TRUE(status.ok()) << "seed " << seed << ": " << status;
  }
}

TEST(VerifyTest, DetectsUndecodableRow) {
  Fixture f = MakeFixture(10);
  const NodeId n = NonObjectNode(f);
  // One extra phantom bit: the row now ends mid-component or decodes to a
  // surplus entry; either way TryDecodeRowStage must say no.
  f.index->mutable_encoded_row(n).size_bits += 1;
  const Status status = f.index->Verify();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("does not decode"), std::string::npos)
      << status;
}

TEST(VerifyTest, DetectsLinkBeyondAdjacencyList) {
  Fixture f = MakeFixture(11);
  const NodeId n = NonObjectNode(f);
  SignatureRow row = testing_util::StagedRow(*f.index, n);
  uint32_t o = 0;
  while (f.objects[o] == n) ++o;
  // The codec's link width has one bit of headroom over max_degree, so the
  // out-of-range slot id survives the encode/decode round trip.
  row[o].link = static_cast<uint8_t>(f.graph.degree(n));
  ReplaceRowBits(f.index.get(), n, row);
  const Status status = f.index->Verify();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("beyond the adjacency list"),
            std::string::npos)
      << status;
}

TEST(VerifyTest, DetectsCategoryChainDisagreement) {
  Fixture f = MakeFixture(12);
  const NodeId n = NonObjectNode(f);
  SignatureRow row = testing_util::StagedRow(*f.index, n);
  uint32_t o = 0;
  while (f.objects[o] == n) ++o;
  const int m = f.index->partition().num_categories();
  row[o].category = static_cast<uint8_t>(row[o].category + 1 < m
                                             ? row[o].category + 1
                                             : row[o].category - 1);
  ReplaceRowBits(f.index.get(), n, row);
  const Status status = f.index->Verify();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("disagrees with the distance"),
            std::string::npos)
      << status;
}

TEST(VerifyTest, DetectsLinkCycle) {
  Fixture f = MakeFixture(13);
  // Two adjacent non-object nodes pointed at each other for one object: the
  // chain walk must flag the cycle instead of spinning.
  for (EdgeId e = 0; e < f.graph.num_edge_slots(); ++e) {
    const auto [u, v] = f.graph.edge_endpoints(e);
    if (f.index->object_at(u) != kInvalidObject ||
        f.index->object_at(v) != kInvalidObject) {
      continue;
    }
    const uint32_t o = 0;
    SignatureRow row_u = testing_util::StagedRow(*f.index, u);
    SignatureRow row_v = testing_util::StagedRow(*f.index, v);
    row_u[o].link = static_cast<uint8_t>(f.graph.AdjacencyIndexOf(u, e));
    row_v[o].link = static_cast<uint8_t>(f.graph.AdjacencyIndexOf(v, e));
    ReplaceRowBits(f.index.get(), u, row_u);
    ReplaceRowBits(f.index.get(), v, row_v);
    const Status status = f.index->Verify();
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("cycle"), std::string::npos) << status;
    return;
  }
  GTEST_SKIP() << "no edge between two non-object nodes in this fixture";
}

TEST(VerifyTest, GarbledRowBitsNeverPassSilently) {
  // Random in-place bit damage to stored rows: Verify may attribute it to
  // any invariant, but a clean bill of health would mean silent corruption.
  // (A flipped category that still matches its chain distance is impossible:
  // category ranges are disjoint and the links are untouched.)
  for (uint64_t trial = 0; trial < 8; ++trial) {
    Fixture f = MakeFixture(20 + trial);
    const NodeId n = static_cast<NodeId>(
        (trial * 37) % f.graph.num_nodes());
    EncodedRow& encoded = f.index->mutable_encoded_row(n);
    if (encoded.bytes.empty()) continue;
    encoded.bytes[encoded.bytes.size() / 2] ^=
        static_cast<uint8_t>(1u << (trial % 8));
    const Status status = f.index->Verify();
    EXPECT_FALSE(status.ok()) << "trial " << trial << " node " << n;
  }
}

}  // namespace
}  // namespace dsig
