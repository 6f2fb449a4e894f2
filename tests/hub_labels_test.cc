// Differential tests of the exact-distance hub-label tier (core/hub_labels):
// every pairwise label distance must equal the Dijkstra ground truth — bit
// for bit, since the generators produce integer edge weights — on all three
// generator families; every entry must be the canonical one for the vertex
// order, at every pool size; with bit-identical serialization round-trips, a
// corruption sweep of the blob decoder, the sticky stale latch, and
// structural verification catching tampering.
#include "core/hub_labels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <initializer_list>
#include <iterator>
#include <utility>
#include <vector>

#include "graph/dijkstra.h"
#include "graph/graph_generator.h"
#include "tests/test_util.h"
#include "util/bitstream.h"
#include "util/thread_pool.h"

namespace dsig {
namespace {

// Byte offsets of the v3 blob header fields (layout in core/hub_labels.h).
constexpr size_t kVersionByte = 4;
constexpr size_t kNodeCountByte = 8;
constexpr size_t kEntryCountByte = 16;
constexpr size_t kHubWidthByte = 24;
constexpr size_t kLengthWidthByte = 25;
constexpr size_t kDistWidthByte = 26;
constexpr size_t kHeaderBytes = 27;

// Decodes `blob` and expects exactly `built`'s pools: label lengths, hubs
// and distance bit patterns. Re-encoding must reproduce the blob, which also
// covers the vertex order.
void ExpectDecodesBitIdentical(const HubLabels& built,
                               const std::vector<uint8_t>& blob) {
  const auto loaded = HubLabels::FromSerialized(blob);
  ASSERT_TRUE(loaded->ready());
  ASSERT_EQ(loaded->num_nodes(), built.num_nodes());
  for (NodeId v = 0; v < built.num_nodes(); ++v) {
    ASSERT_EQ(loaded->label_size(v), built.label_size(v)) << "node " << v;
    for (size_t i = 0; i < built.label_size(v); ++i) {
      ASSERT_EQ(loaded->hubs(v)[i], built.hubs(v)[i]) << "node " << v;
      ASSERT_EQ(std::bit_cast<uint64_t>(loaded->dists(v)[i]),
                std::bit_cast<uint64_t>(built.dists(v)[i]))
          << "node " << v;
    }
  }
  EXPECT_EQ(loaded->Serialize(), blob);
}

// A ring with chords whose weights step by 0.1, so most label distances are
// not whole numbers and the blob must fall back to raw IEEE distances.
RoadNetwork MakeFractionalWeightNetwork() {
  RoadNetwork g;
  constexpr NodeId kNodes = 40;
  for (NodeId i = 0; i < kNodes; ++i) {
    g.AddNode({static_cast<double>(i), 0});
  }
  for (NodeId i = 0; i < kNodes; ++i) {
    g.AddEdge(i, (i + 1) % kNodes, 0.1 * (i % 7 + 1));
  }
  for (NodeId i = 0; i < kNodes; i += 5) {
    g.AddEdge(i, (i + 13) % kNodes, 0.3 * (i % 4 + 1));
  }
  return g;
}

// A one-node blob written field by field at the given widths: node 0 at
// rank 0 with a label length of 1, then `entries` pool entries of (hub 0,
// distance 0). The payload always matches the widths; an `entries` other
// than 1 disagrees with the label length.
std::vector<uint8_t> OneNodeBlob(int hub_width, int len_width, int dist_width,
                                 uint64_t entries = 1) {
  BitWriter out;
  out.WriteBits(0x4c475344, 32);  // "DSGL"
  out.WriteBits(3, 32);           // version
  out.WriteBits(1, 64);           // nodes
  out.WriteBits(entries, 64);
  out.WriteBits(static_cast<uint64_t>(hub_width), 8);
  out.WriteBits(static_cast<uint64_t>(len_width), 8);
  out.WriteBits(static_cast<uint64_t>(dist_width), 8);
  out.WriteBits(0, hub_width);  // rank_of[0]
  out.WriteBits(1, len_width);  // |L(0)|
  for (uint64_t i = 0; i < entries; ++i) out.WriteBits(0, hub_width);
  for (uint64_t i = 0; i < entries; ++i) out.WriteBits(0, dist_width);
  return out.TakeBytes();
}

// `value`, little-endian, in the `bytes` bytes of a blob at `offset`.
struct HeaderField {
  size_t offset;
  size_t bytes;
  uint64_t value;
};

// Whether `blob` still decodes once `fields` are written into it.
bool DecodesWith(std::vector<uint8_t> blob,
                 std::initializer_list<HeaderField> fields) {
  for (const HeaderField& f : fields) {
    for (size_t i = 0; i < f.bytes; ++i) {
      blob[f.offset + i] = static_cast<uint8_t>(f.value >> (8 * i));
    }
  }
  return HubLabels::FromSerialized(std::move(blob))->ready();
}

void ExpectMatchesDijkstra(const RoadNetwork& g, const HubLabels& labels,
                           const std::vector<NodeId>& roots) {
  for (const NodeId u : roots) {
    const ShortestPathTree tree = RunDijkstra(g, u);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(labels.Distance(u, v), tree.dist[v])
          << "u=" << u << " v=" << v;
    }
  }
}

// Per node, (hub rank, distance) pairs ascending by rank.
using Label = std::vector<std::pair<uint32_t, Weight>>;

// The canonical labeling for `labels`' vertex order (Akiba et al., SIGMOD
// 2013): L(v) holds (h, d(h, v)) exactly when no node ranked before h lies
// on any shortest h-v path. One full Dijkstra per hub, in rank order; a node
// is covered when it is ranked before h or any of its tight predecessors is
// covered. Ranks are read from the distance-0 self entries, of which
// weights > 0 leave exactly one per label.
std::vector<Label> CanonicalLabels(const RoadNetwork& g,
                                   const HubLabels& labels) {
  const size_t n = g.num_nodes();
  std::vector<NodeId> node_of(n, kInvalidNode);
  std::vector<uint32_t> rank_of(n);
  for (NodeId v = 0; v < n; ++v) {
    size_t self_entries = 0;
    for (size_t i = 0; i < labels.label_size(v); ++i) {
      if (labels.dists(v)[i] != 0) continue;
      rank_of[v] = labels.hubs(v)[i];
      ++self_entries;
    }
    if (self_entries != 1 || node_of[rank_of[v]] != kInvalidNode) {
      ADD_FAILURE() << "node " << v << " has no unique self entry";
      return {};
    }
    node_of[rank_of[v]] = v;
  }
  std::vector<Label> canonical(n);
  std::vector<NodeId> by_distance;
  std::vector<char> covered(n);
  for (uint32_t h = 0; h < n; ++h) {
    const ShortestPathTree tree = RunDijkstra(g, node_of[h]);
    by_distance.clear();
    for (NodeId v = 0; v < n; ++v) {
      if (tree.dist[v] != kInfiniteWeight) by_distance.push_back(v);
    }
    std::sort(by_distance.begin(), by_distance.end(),
              [&](NodeId a, NodeId b) { return tree.dist[a] < tree.dist[b]; });
    // A tight predecessor is nearer, so it is already set for this hub.
    for (const NodeId v : by_distance) {
      covered[v] = rank_of[v] < h;
      for (const AdjacencyEntry& hop : g.adjacency(v)) {
        if (!hop.removed && covered[hop.to] &&
            tree.dist[hop.to] + hop.weight == tree.dist[v]) {
          covered[v] = 1;
        }
      }
      if (covered[v] == 0) canonical[v].push_back({h, tree.dist[v]});
    }
  }
  return canonical;
}

// Entries in `labels` or `want` but not in both.
size_t CountDifferingEntries(const HubLabels& labels,
                             const std::vector<Label>& want) {
  size_t differing = 0;
  for (NodeId v = 0; v < labels.num_nodes(); ++v) {
    Label have;
    for (size_t i = 0; i < labels.label_size(v); ++i) {
      have.push_back({labels.hubs(v)[i], labels.dists(v)[i]});
    }
    Label only;
    std::set_symmetric_difference(have.begin(), have.end(), want[v].begin(),
                                  want[v].end(), std::back_inserter(only));
    differing += only.size();
  }
  return differing;
}

TEST(HubLabelsTest, MatchesDijkstraOnSevenNodeNetwork) {
  const RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  const auto labels = HubLabels::Build(g, {}, nullptr);
  ASSERT_NE(labels, nullptr);
  ASSERT_TRUE(labels->ready());
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId n = 0; n < g.num_nodes(); ++n) all[n] = n;
  ExpectMatchesDijkstra(g, *labels, all);
}

TEST(HubLabelsTest, MatchesDijkstraOnRandomPlanar) {
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 600, .seed = 7});
  const auto labels = HubLabels::Build(g, {}, &ThreadPool::Global());
  ASSERT_TRUE(labels->ready());
  ExpectMatchesDijkstra(g, *labels, testing_util::SampleNodes(g, 12, 7));
}

TEST(HubLabelsTest, MatchesDijkstraOnGrid) {
  const RoadNetwork g = MakeGrid({.width = 24, .height = 17});
  const auto labels = HubLabels::Build(g, {}, &ThreadPool::Global());
  ASSERT_TRUE(labels->ready());
  ExpectMatchesDijkstra(g, *labels, testing_util::SampleNodes(g, 10, 3));
}

TEST(HubLabelsTest, MatchesDijkstraOnClusteredContinental) {
  const RoadNetwork g =
      MakeClusteredContinental({.num_clusters = 4, .nodes_per_cluster = 120,
                                .seed = 19});
  const auto labels = HubLabels::Build(g, {}, &ThreadPool::Global());
  ASSERT_TRUE(labels->ready());
  ExpectMatchesDijkstra(g, *labels, testing_util::SampleNodes(g, 10, 19));
}

// With no sampled trees the greedy cover takes no node, so the order is the
// static one, live degree then node id: labels stay exact under it too.
TEST(HubLabelsTest, DegreeOrderIsAlsoExact) {
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 300, .seed = 31});
  const auto labels = HubLabels::Build(g, {.coverage_samples = 0}, nullptr);
  ASSERT_TRUE(labels->ready());
  ExpectMatchesDijkstra(g, *labels, testing_util::SampleNodes(g, 8, 31));
}

TEST(HubLabelsTest, LabelsAreCanonical) {
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 300, .seed = 5});
  const auto labels = HubLabels::Build(g, {}, &ThreadPool::Global());
  ASSERT_TRUE(labels->ready());
  ASSERT_EQ(labels->num_nodes(), g.num_nodes());
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const uint32_t* hubs = labels->hubs(n);
    const double* dists = labels->dists(n);
    const size_t len = labels->label_size(n);
    ASSERT_GT(len, 0u);
    // Strictly ascending hub ranks, non-negative finite distances, and the
    // node's own rank at distance 0 somewhere in the label.
    bool self_seen = false;
    for (size_t i = 0; i < len; ++i) {
      if (i > 0) {
        ASSERT_LT(hubs[i - 1], hubs[i]) << "node " << n;
      }
      ASSERT_GE(dists[i], 0.0);
      if (dists[i] == 0.0) self_seen = true;
    }
    ASSERT_TRUE(self_seen) << "node " << n;
    ASSERT_EQ(labels->Distance(n, n), 0.0);
  }
  EXPECT_TRUE(labels->VerifyStructure(g).ok());
  const HubLabelStats stats = labels->stats();
  EXPECT_EQ(stats.entries, [&] {
    uint64_t total = 0;
    for (NodeId n = 0; n < g.num_nodes(); ++n) total += labels->label_size(n);
    return total;
  }());
  EXPECT_GT(stats.avg_label_entries, 0.0);
  EXPECT_GT(stats.bytes, 0u);
  // Pruning is the whole point: far fewer entries than the quadratic
  // all-pairs labeling would store.
  EXPECT_LT(stats.entries, uint64_t{g.num_nodes()} * g.num_nodes() / 4);
}

TEST(HubLabelsTest, SerializeRoundTripsAndDecodesLazily) {
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 250, .seed = 13});
  const auto built = HubLabels::Build(g, {}, &ThreadPool::Global());
  ASSERT_TRUE(built->ready());
  const auto loaded = HubLabels::FromSerialized(built->Serialize());
  ASSERT_NE(loaded, nullptr);
  EXPECT_FALSE(loaded->stale());
  // First use triggers the decode; thereafter the two instances agree
  // everywhere.
  ASSERT_TRUE(loaded->ready());
  EXPECT_EQ(loaded->stats().entries, built->stats().entries);
  for (const NodeId u : testing_util::SampleNodes(g, 6, 13)) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(loaded->Distance(u, v), built->Distance(u, v));
    }
  }
  EXPECT_TRUE(loaded->VerifyStructure(g).ok());
  ExpectDecodesBitIdentical(*built, built->Serialize());
}

// Integer-weight families take the packed-integer distance path;
// fractional weights take the raw IEEE path. Both decode to the built pools
// bit for bit.
TEST(HubLabelsTest, RoundTripIsBitIdenticalOnEveryFamily) {
  const RoadNetwork networks[] = {
      MakeRandomPlanar({.num_nodes = 300, .seed = 3}),
      MakeGrid({.width = 15, .height = 11}),
      MakeClusteredContinental({.num_clusters = 3, .nodes_per_cluster = 80,
                                .seed = 11}),
      MakeFractionalWeightNetwork(),
  };
  for (const RoadNetwork& g : networks) {
    SCOPED_TRACE(g.num_nodes());
    const auto built = HubLabels::Build(g, {}, &ThreadPool::Global());
    const std::vector<uint8_t> blob = built->Serialize();
    const bool fractional = &g == &networks[3];
    if (fractional) {
      EXPECT_EQ(blob[kDistWidthByte], 64);
    } else {
      EXPECT_LE(blob[kDistWidthByte], 53);
    }
    ExpectDecodesBitIdentical(*built, blob);
    EXPECT_TRUE(HubLabels::FromSerialized(blob)->VerifyStructure(g).ok());
  }
}

// The narrowest networks exercise the 1-bit floor of every field width.
TEST(HubLabelsTest, TinyNetworksRoundTripWithOneBitWidths) {
  RoadNetwork one;
  one.AddNode({0, 0});
  RoadNetwork two;
  two.AddNode({0, 0});
  two.AddNode({1, 0});
  two.AddEdge(0, 1, 1);
  for (const RoadNetwork* g : {&one, &two}) {
    SCOPED_TRACE(g->num_nodes());
    const auto built = HubLabels::Build(*g, {}, nullptr);
    const std::vector<uint8_t> blob = built->Serialize();
    EXPECT_EQ(blob[kHubWidthByte], 1);   // ranks 0..n-1 <= 1
    EXPECT_EQ(blob[kDistWidthByte], 1);  // distances 0 and 1
    ExpectDecodesBitIdentical(*built, blob);
    EXPECT_TRUE(HubLabels::FromSerialized(blob)->VerifyStructure(*g).ok());
  }
  // One node: a single (self, 0) entry, so every field is 1 bit wide and
  // the blob is exactly the layout hub_labels.h documents.
  EXPECT_EQ(HubLabels::Build(one, {}, nullptr)->Serialize(),
            OneNodeBlob(1, 1, 1));
}

// The decoder parses untrusted bytes. Every truncation and every flipped
// byte must come back as an instance that is not ready or that verifies to
// a Status — never an abort.
TEST(HubLabelsTest, CorruptBlobDegradesToNotReady) {
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 60, .seed = 23});
  const auto built = HubLabels::Build(g, {}, nullptr);
  const std::vector<uint8_t> blob = built->Serialize();

  // The stream ends on its last field, so a truncation at any length, or a
  // stray trailing byte, is rejected outright.
  for (size_t len = 0; len < blob.size(); ++len) {
    const auto cut = HubLabels::FromSerialized(
        std::vector<uint8_t>(blob.begin(), blob.begin() + len));
    ASSERT_FALSE(cut->ready()) << "truncated to " << len;
    EXPECT_FALSE(cut->VerifyStructure(g).ok());
  }
  std::vector<uint8_t> longer = blob;
  longer.push_back(0);
  EXPECT_FALSE(HubLabels::FromSerialized(std::move(longer))->ready());

  for (size_t i = 0; i < blob.size(); ++i) {
    for (const uint8_t mask : {0x01, 0x80, 0xFF}) {
      std::vector<uint8_t> flipped = blob;
      flipped[i] ^= mask;
      const auto labels = HubLabels::FromSerialized(std::move(flipped));
      // Magic and version mismatches never decode.
      if (i < kNodeCountByte) {
        ASSERT_FALSE(labels->ready()) << "byte " << i;
      }
      (void)labels->VerifyStructure(g);
    }
  }

  // An unusable instance answers every query with "unreachable".
  const auto broken = HubLabels::FromSerialized({1, 2, 3});
  EXPECT_EQ(broken->Distance(0, 1), kInfiniteWeight);
}

// Header values that would size a pool from nothing, and fields wider or
// narrower than the format allows, are rejected before any pool is
// allocated.
TEST(HubLabelsTest, HostileHeadersAreRejected) {
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 60, .seed = 23});
  const std::vector<uint8_t> blob =
      HubLabels::Build(g, {}, nullptr)->Serialize();
  ASSERT_TRUE(DecodesWith(blob, {}));
  EXPECT_FALSE(DecodesWith(blob, {{kVersionByte, 4, 2}}));
  EXPECT_FALSE(DecodesWith(blob, {{kVersionByte, 4, 4}}));

  // Counts larger than the bits left. A decoder that allocated first would
  // abort (or throw) on them.
  constexpr uint64_t kHuge = uint64_t{1} << 40;
  constexpr uint64_t kMax = ~uint64_t{0};
  EXPECT_FALSE(DecodesWith(blob, {{kNodeCountByte, 8, kHuge}}));
  EXPECT_FALSE(DecodesWith(blob, {{kNodeCountByte, 8, kMax}}));
  EXPECT_FALSE(DecodesWith(blob, {{kEntryCountByte, 8, kHuge}}));
  EXPECT_FALSE(DecodesWith(blob, {{kEntryCountByte, 8, kMax}}));
  // Every node and entry of the one-node blob takes 2 bits, so adding 2^63
  // to a count leaves its bit total unchanged modulo 2^64.
  const std::vector<uint8_t> one = OneNodeBlob(1, 1, 1);
  ASSERT_TRUE(DecodesWith(one, {}));
  constexpr uint64_t kWraps = (uint64_t{1} << 63) + 1;
  EXPECT_FALSE(DecodesWith(one, {{kNodeCountByte, 8, kWraps}}));
  EXPECT_FALSE(DecodesWith(one, {{kEntryCountByte, 8, kWraps}}));

  // Widths out of range, with payloads sized to match them: ranks and
  // lengths take 1..32 bits, integer distances 1..53, and 64 marks raw
  // IEEE patterns.
  EXPECT_TRUE(DecodesWith(OneNodeBlob(32, 32, 53), {}));
  EXPECT_TRUE(DecodesWith(OneNodeBlob(1, 1, 64), {}));
  EXPECT_FALSE(DecodesWith(OneNodeBlob(0, 1, 1), {}));
  EXPECT_FALSE(DecodesWith(OneNodeBlob(1, 0, 1), {}));
  EXPECT_FALSE(DecodesWith(OneNodeBlob(1, 1, 0), {}));
  EXPECT_FALSE(DecodesWith(OneNodeBlob(33, 1, 1), {}));
  EXPECT_FALSE(DecodesWith(OneNodeBlob(1, 33, 1), {}));
  EXPECT_FALSE(DecodesWith(OneNodeBlob(1, 1, 54), {}));
  EXPECT_FALSE(DecodesWith(OneNodeBlob(1, 1, 63), {}));
  EXPECT_FALSE(DecodesWith(blob, {{kDistWidthByte, 1, 65}}));
  EXPECT_FALSE(DecodesWith(blob, {{kDistWidthByte, 1, 255}}));

  // Label lengths that do not sum to the entry count.
  EXPECT_FALSE(DecodesWith(OneNodeBlob(1, 1, 1, /*entries=*/0), {}));
  EXPECT_FALSE(DecodesWith(OneNodeBlob(1, 1, 1, /*entries=*/2), {}));
  // A set bit in the padding after the last field.
  std::vector<uint8_t> padded = one;
  padded.back() ^= 0x80;
  EXPECT_FALSE(DecodesWith(padded, {}));
}

TEST(HubLabelsTest, VerifyStructureCatchesTampering) {
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 120, .seed = 17});
  const auto built = HubLabels::Build(g, {}, nullptr);
  ASSERT_TRUE(built->VerifyStructure(g).ok());

  // Wrong graph: node-count mismatch is structural, not sampled.
  const RoadNetwork small = testing_util::MakeSevenNodeNetwork();
  EXPECT_FALSE(built->VerifyStructure(small).ok());

  // A distance perturbation that keeps the blob well-formed (a whole,
  // non-negative distance, still ascending hubs) must be caught by the
  // structural pass. Set the low bit of node 0's self-entry distance,
  // 0 -> 1: before it come the header, n ranks and n lengths, every hub,
  // then the distance pool, where node 0's label starts.
  std::vector<uint8_t> blob = built->Serialize();
  const uint64_t n = built->num_nodes();
  const uint64_t entries = built->stats().entries;
  const uint64_t hub_width = blob[kHubWidthByte];
  const uint64_t len_width = blob[kLengthWidthByte];
  const uint64_t dist_width = blob[kDistWidthByte];
  ASSERT_LE(dist_width, 53u);  // packed integers, not raw IEEE patterns
  size_t p = 0;
  while (built->dists(0)[p] != 0) ++p;
  const uint64_t bit = 8 * kHeaderBytes + n * (hub_width + len_width) +
                       entries * hub_width + p * dist_width;
  blob[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  const auto loaded = HubLabels::FromSerialized(std::move(blob));
  ASSERT_TRUE(loaded->ready());  // decode-time checks cannot see this
  ASSERT_EQ(loaded->dists(0)[p], 1.0);
  EXPECT_FALSE(loaded->VerifyStructure(g).ok());
}

TEST(HubLabelsTest, StaleLatchIsSticky) {
  const RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  const auto labels = HubLabels::Build(g, {}, nullptr);
  EXPECT_FALSE(labels->stale());
  labels->MarkStale();
  EXPECT_TRUE(labels->stale());
  labels->MarkStale();  // idempotent
  EXPECT_TRUE(labels->stale());
  // Staleness does not damage the data — it only gates routing.
  EXPECT_TRUE(labels->ready());
  EXPECT_EQ(labels->Distance(0, 1), 4.0);
}

// The batched pruned searches, with a pool, yield exactly the canonical
// entries: on every generator family, with no pool (one root at a time) and
// with pools whose batches let earlier roots of a batch block later ones.
TEST(HubLabelsTest, EntriesAreTheCanonicalHubs) {
  const RoadNetwork networks[] = {
      MakeRandomPlanar({.num_nodes = 300, .seed = 37}),
      MakeGrid({.width = 20, .height = 15}),
      MakeClusteredContinental({.num_clusters = 3, .nodes_per_cluster = 100,
                                .seed = 37}),
      MakeRandomPlanar({.num_nodes = 1500, .seed = 37}),
  };
  for (const RoadNetwork& g : networks) {
    SCOPED_TRACE(g.num_nodes());
    const auto serial = HubLabels::Build(g, {}, nullptr);
    const std::vector<Label> canonical = CanonicalLabels(g, *serial);
    ASSERT_EQ(canonical.size(), g.num_nodes());
    EXPECT_EQ(CountDifferingEntries(*serial, canonical), 0u);
    for (const size_t threads : {2, 4}) {
      ThreadPool pool(threads);
      EXPECT_EQ(CountDifferingEntries(*HubLabels::Build(g, {}, &pool),
                                      canonical),
                0u)
          << threads << " threads";
    }
  }
}

// The sample trees and the pruned searches run on the pool, the greedy
// order on the caller. The blob must not depend on the thread count, also
// on networks large enough for the greedy to take many nodes and for the
// batches to reach their largest size. Fractional weights make path sums
// inexact, so those networks build one root at a time on any pool.
TEST(HubLabelsTest, BuildIsDeterministicAcrossPools) {
  const RoadNetwork networks[] = {
      MakeRandomPlanar({.num_nodes = 200, .seed = 29}),
      MakeRandomPlanar({.num_nodes = 2000, .seed = 29}),
      MakeGrid({.width = 50, .height = 50}),
      MakeClusteredContinental({.num_clusters = 4, .nodes_per_cluster = 500,
                                .seed = 29}),
      MakeFractionalWeightNetwork(),
      MakeGrid({.width = 40, .height = 40, .edge_weight = 0.1}),
  };
  for (const RoadNetwork& g : networks) {
    SCOPED_TRACE(g.num_nodes());
    const auto serial = HubLabels::Build(g, {}, nullptr);
    ASSERT_TRUE(serial->ready());
    const std::vector<uint8_t> blob = serial->Serialize();
    for (const size_t threads : {1, 2, 4}) {
      ThreadPool pool(threads);
      const auto parallel = HubLabels::Build(g, {}, &pool);
      ASSERT_TRUE(parallel->ready());
      EXPECT_EQ(parallel->Serialize(), blob) << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace dsig
