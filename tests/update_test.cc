#include "core/update.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>

#include "core/distance_ops.h"
#include "core/signature_builder.h"
#include "graph/graph_generator.h"
#include "query/knn_query.h"
#include "query/range_query.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "workload/dataset_generator.h"

namespace dsig {
namespace {

// The maintained index must be semantically fresh: every row category equals
// the category of the TRUE current distance under the index's own partition,
// and guided backtracking still retrieves exact distances (i.e., all links
// are valid next hops).
void ExpectIndexMatchesRebuild(const RoadNetwork& g,
                               const std::vector<NodeId>& objects,
                               const SignatureIndex& maintained) {
  const auto truth = testing_util::BruteForceDistances(g, objects);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const SignatureRow row = testing_util::StagedRow(maintained, n);
    ASSERT_EQ(row.size(), objects.size());
    for (uint32_t o = 0; o < row.size(); ++o) {
      EXPECT_EQ(row[o].category,
                maintained.partition().CategoryOf(truth[o][n]))
          << "node " << n << " object " << o;
      EXPECT_EQ(ExactDistance(maintained, n, o), truth[o][n])
          << "node " << n << " object " << o;
    }
  }
}

TEST(SignatureUpdaterTest, RequiresForest) {
  RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  auto index =
      BuildSignatureIndex(g, {1}, {.t = 4, .c = 2, .keep_forest = true});
  SignatureUpdater updater(&g, index.get());  // must not die
  SUCCEED();
}

TEST(SignatureUpdaterTest, WeightDecreaseUpdatesCategories) {
  RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  const std::vector<NodeId> objects = {5};
  auto index = BuildSignatureIndex(g, objects, {.t = 4, .c = 2});
  SignatureUpdater updater(&g, index.get());
  EXPECT_EQ(ExactDistance(*index, 0, 0), 12);
  // Shorten 4-5: d(0, 5) via 0-3-4-5 becomes 3+1+1 = 5.
  const UpdateStats stats = updater.SetEdgeWeight(g.FindEdge(4, 5), 1);
  EXPECT_GT(stats.tree_entries_changed, 0u);
  EXPECT_GT(stats.rows_rewritten, 0u);
  EXPECT_EQ(ExactDistance(*index, 0, 0), 5);
  ExpectIndexMatchesRebuild(g, objects, *index);
}

TEST(SignatureUpdaterTest, EdgeAdditionCreatesShortcut) {
  RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  const std::vector<NodeId> objects = {6};
  auto index = BuildSignatureIndex(g, objects, {.t = 4, .c = 2});
  SignatureUpdater updater(&g, index.get());
  EXPECT_EQ(ExactDistance(*index, 2, 0), 17);  // 2-5-4-6 = 2+8+7
  EdgeId new_edge = kInvalidEdge;
  updater.AddEdge(2, 6, 1, &new_edge);
  ASSERT_NE(new_edge, kInvalidEdge);
  EXPECT_EQ(ExactDistance(*index, 2, 0), 1);
  ExpectIndexMatchesRebuild(g, objects, *index);
}

TEST(SignatureUpdaterTest, WeightIncreaseReroutes) {
  RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  const std::vector<NodeId> objects = {0, 6};
  auto index = BuildSignatureIndex(g, objects, {.t = 4, .c = 2});
  SignatureUpdater updater(&g, index.get());
  updater.SetEdgeWeight(g.FindEdge(0, 3), 50);
  ExpectIndexMatchesRebuild(g, objects, *index);
}

TEST(SignatureUpdaterTest, RemovalReroutes) {
  RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  const std::vector<NodeId> objects = {0, 5};
  auto index = BuildSignatureIndex(g, objects, {.t = 4, .c = 2});
  SignatureUpdater updater(&g, index.get());
  updater.RemoveEdge(g.FindEdge(3, 4));
  ExpectIndexMatchesRebuild(g, objects, *index);
}

TEST(SignatureUpdaterTest, NoOpWeightChange) {
  RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  auto index = BuildSignatureIndex(g, {1}, {.t = 4, .c = 2});
  SignatureUpdater updater(&g, index.get());
  const EdgeId e = g.FindEdge(0, 1);
  const UpdateStats stats = updater.SetEdgeWeight(e, g.edge_weight(e));
  EXPECT_EQ(stats.tree_entries_changed, 0u);
  EXPECT_EQ(stats.rows_rewritten, 0u);
}

TEST(SignatureUpdaterTest, UpdatesRefreshObjectTable) {
  RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  const std::vector<NodeId> objects = {0, 5};
  auto index = BuildSignatureIndex(g, objects, {.t = 4, .c = 2});
  SignatureUpdater updater(&g, index.get());
  // d(0, 5) = 12 initially; a direct shortcut drops it to 1.
  updater.AddEdge(0, 5, 1);
  EXPECT_FALSE(index->object_table().IsFar(0, 1));
  EXPECT_EQ(index->object_table().Get(0, 1), 1);
}

// Regression: raising the tree edge of node 1 moves it onto the parallel
// 0-1 edge with the same parent and the same distance. The forest changes
// only in its parent edge, and the signature row must follow: a stale link
// to the raised slot made the link chase return 10 and 13.
TEST(SignatureUpdaterTest, WeightIncreaseOntoParallelEdgeRewritesLink) {
  RoadNetwork g;
  for (int i = 0; i < 3; ++i) g.AddNode({static_cast<double>(i), 0});
  const EdgeId first = g.AddEdge(0, 1, 5);
  g.AddEdge(0, 1, 5);
  g.AddEdge(1, 2, 3);
  const std::vector<NodeId> objects = {0};
  auto index = BuildSignatureIndex(g, objects, {.t = 4, .c = 2});
  SignatureUpdater updater(&g, index.get());
  updater.SetEdgeWeight(first, 10);
  EXPECT_EQ(ExactDistance(*index, 1, 0), 5);
  EXPECT_EQ(ExactDistance(*index, 2, 0), 8);
  ExpectIndexMatchesRebuild(g, objects, *index);
}

// True when every node still reaches node 0 over live edges other than
// `skip` — i.e., removing `skip` keeps the network connected.
bool ConnectedWithout(const RoadNetwork& g, EdgeId skip) {
  std::vector<bool> seen(g.num_nodes(), false);
  std::deque<NodeId> queue = {0};
  seen[0] = true;
  size_t reached = 1;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (const AdjacencyEntry& entry : g.adjacency(u)) {
      if (entry.removed || entry.edge_id == skip || seen[entry.to]) continue;
      seen[entry.to] = true;
      ++reached;
      queue.push_back(entry.to);
    }
  }
  return reached == g.num_nodes();
}

// Oracle: on a network with a few dozen parallel edges, a seeded stream of
// weight increases, decreases, and removals keeps every exact distance the
// index retrieves (by chasing links) equal to a fresh Dijkstra's.
class ParallelEdgeUpdateTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelEdgeUpdateTest, ExactDistancesMatchDijkstraAfterEveryStep) {
  const uint64_t seed = GetParam();
  RoadNetwork g = MakeRandomPlanar({.num_nodes = 250, .seed = seed});
  Random rng(seed * 13 + 3);
  const size_t base_edges = g.num_edge_slots();
  for (int i = 0; i < 36; ++i) {
    const EdgeId e = static_cast<EdgeId>(rng.NextUint64(base_edges));
    const auto [u, v] = g.edge_endpoints(e);
    // Mostly equal-weight twins: ties the original edge wins at build time.
    const Weight w =
        rng.NextUint64(3) == 0 ? rng.NextInt(1, 10) : g.edge_weight(e);
    g.AddEdge(u, v, w);
  }
  const std::vector<NodeId> objects = UniformDataset(g, 0.05, seed);
  auto index = BuildSignatureIndex(g, objects, {.t = 5, .c = 2});
  SignatureUpdater updater(&g, index.get());

  int removals = 0;
  for (int step = 0; step < 30; ++step) {
    const EdgeId e = static_cast<EdgeId>(rng.NextUint64(g.num_edge_slots()));
    if (g.edge_removed(e)) continue;
    // Removals that would disconnect the network (signatures need every
    // object reachable) fall through to a decrease.
    const int action = static_cast<int>(rng.NextUint64(3));
    if (action == 0 && ConnectedWithout(g, e)) {
      updater.RemoveEdge(e);
      ++removals;
    } else if (action == 1) {
      updater.SetEdgeWeight(e, g.edge_weight(e) + rng.NextInt(1, 10));
    } else {
      updater.SetEdgeWeight(e, std::max<Weight>(1, g.edge_weight(e) - 3));
    }
    const auto truth = testing_util::BruteForceDistances(g, objects);
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      for (uint32_t o = 0; o < objects.size(); ++o) {
        ASSERT_EQ(ExactDistance(*index, n, o), truth[o][n])
            << "step " << step << " node " << n << " object " << o;
      }
    }
  }
  EXPECT_GT(removals, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelEdgeUpdateTest,
                         ::testing::Values(2, 9, 21));

// Property: a long random mixed update sequence keeps the index exactly
// equivalent to a rebuild, and queries stay correct throughout.
class UpdaterPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UpdaterPropertyTest, RandomUpdateSequence) {
  RoadNetwork g = MakeRandomPlanar({.num_nodes = 250, .seed = GetParam()});
  const std::vector<NodeId> objects = UniformDataset(g, 0.05, GetParam());
  auto index = BuildSignatureIndex(g, objects, {.t = 5, .c = 2});
  SignatureUpdater updater(&g, index.get());
  Random rng(GetParam() + 7);
  for (int step = 0; step < 25; ++step) {
    const int action = static_cast<int>(rng.NextUint64(3));
    if (action == 0) {
      const NodeId u = static_cast<NodeId>(rng.NextUint64(g.num_nodes()));
      NodeId v = static_cast<NodeId>(rng.NextUint64(g.num_nodes()));
      if (u == v) v = (v + 1) % static_cast<NodeId>(g.num_nodes());
      updater.AddEdge(u, v, rng.NextInt(1, 10));
    } else {
      const EdgeId e =
          static_cast<EdgeId>(rng.NextUint64(g.num_edge_slots()));
      if (g.edge_removed(e)) continue;
      updater.SetEdgeWeight(e, rng.NextInt(1, 10));
    }
  }
  ExpectIndexMatchesRebuild(g, objects, *index);

  // And queries still agree with brute force.
  const auto truth = testing_util::BruteForceDistances(g, objects);
  for (const NodeId n : testing_util::SampleNodes(g, 5, GetParam())) {
    const KnnResult r = SignatureKnnQuery(*index, n, 5,
                                          KnnResultType::kType1);
    std::vector<Weight> expected;
    for (const auto& row : truth) expected.push_back(row[n]);
    std::sort(expected.begin(), expected.end());
    expected.resize(5);
    EXPECT_EQ(r.distances, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpdaterPropertyTest,
                         ::testing::Values(1, 6, 16));

TEST(SignatureUpdaterTest, UpdateLocalityIsBounded) {
  // Paper §5.4: a local change should touch few signatures relative to a
  // rebuild, thanks to exponential categories and to repairing only the
  // trees that route through the changed edge.
  RoadNetwork g = MakeRandomPlanar({.num_nodes = 2000, .seed = 5});
  const std::vector<NodeId> objects = UniformDataset(g, 0.01, 5);
  auto index = BuildSignatureIndex(g, objects, {.t = 10, .c = 2.7});
  SignatureUpdater updater(&g, index.get());
  Random rng(5);
  size_t total_rows = 0;
  int updates = 0;
  for (int i = 0; i < 20; ++i) {
    const EdgeId e = static_cast<EdgeId>(rng.NextUint64(g.num_edge_slots()));
    if (g.edge_removed(e)) continue;
    const Weight w = g.edge_weight(e);
    const UpdateStats stats =
        updater.SetEdgeWeight(e, std::max<Weight>(1, w - 1));
    total_rows += stats.rows_rewritten;
    ++updates;
  }
  ASSERT_GT(updates, 0);
  // On average far fewer than all rows are rewritten per update.
  EXPECT_LT(total_rows / static_cast<size_t>(updates), g.num_nodes() / 4);
}

// Fallback rows are recomputed from the graph, so every network change must
// drop them, including one that rewrites no signature row. Network: n=0,
// d=1, a=2, b=3, o=4 with two equal-length paths n-a-o (2+2) and n-b-d-o
// (1+1+2) to the only object o. The forest links n via a; with n's stored
// row corrupt, the recomputed fallback row links n via b instead.
struct FallbackFixture {
  RoadNetwork graph;
  EdgeId n_b = kInvalidEdge;
  EdgeId b_d = kInvalidEdge;
  std::unique_ptr<SignatureIndex> index;

  FallbackFixture() {
    for (int i = 0; i < 5; ++i) graph.AddNode({static_cast<double>(i), 0});
    graph.AddEdge(0, 2, 2);
    graph.AddEdge(2, 4, 2);
    n_b = graph.AddEdge(0, 3, 1);
    b_d = graph.AddEdge(3, 1, 1);
    graph.AddEdge(1, 4, 2);
    index = BuildSignatureIndex(graph, {4},
                                {.t = 4, .c = 2, .keep_forest = true});
    index->mutable_encoded_row(0).size_bits = 0;
  }
};

TEST(SignatureUpdaterTest, UnrelatedWeightChangeDropsFallbackRow) {
  FallbackFixture f;
  EXPECT_EQ(ExactDistance(*f.index, 0, 0), 4);  // caches n's fallback (via b)
  // No tree uses n-b, so nothing is rewritten; the cached fallback row would
  // still route n through the now longer edge.
  SignatureUpdater updater(&f.graph, f.index.get());
  const UpdateStats stats = updater.SetEdgeWeight(f.n_b, 5);
  EXPECT_EQ(stats.rows_rewritten, 0u);
  EXPECT_EQ(ExactDistance(*f.index, 0, 0), 4);
}

TEST(SignatureUpdaterTest, RewrittenNeighbourDoesNotCycleThroughFallbackRow) {
  FallbackFixture f;
  EXPECT_EQ(ExactDistance(*f.index, 0, 0), 4);  // caches n's fallback (via b)
  // b's row is rewritten to point back at n; a stale fallback for n still
  // pointing at b would make the link chain cycle.
  SignatureUpdater updater(&f.graph, f.index.get());
  EXPECT_GT(updater.SetEdgeWeight(f.b_d, 10).rows_rewritten, 0u);
  EXPECT_EQ(ExactDistance(*f.index, 0, 0), 4);
  EXPECT_EQ(ExactDistance(*f.index, 3, 0), 5);
}

// Regression: a hot decoded-row cache must never serve a resolution
// computed against the pre-update object table. The updater invalidates the
// complete affected-node set before publishing any rewritten row, so a
// cache-warmed index must stay entry-identical to one with caching disabled
// across a long update sequence.
TEST(SignatureUpdaterTest, HotRowCacheNeverServesStaleResolutions) {
  const std::vector<NodeId> objects = [] {
    const RoadNetwork g = MakeRandomPlanar({.num_nodes = 250, .seed = 12});
    return UniformDataset(g, 0.05, 12);
  }();

  RoadNetwork hot_graph = MakeRandomPlanar({.num_nodes = 250, .seed = 12});
  auto hot = BuildSignatureIndex(hot_graph, objects, {.t = 5, .c = 2});
  hot->ConfigureRowCache({.byte_budget = 1 << 20});  // everything fits

  RoadNetwork cold_graph = MakeRandomPlanar({.num_nodes = 250, .seed = 12});
  auto cold = BuildSignatureIndex(cold_graph, objects, {.t = 5, .c = 2});
  cold->ConfigureRowCache({.byte_budget = 0});  // caching disabled

  SignatureUpdater hot_updater(&hot_graph, hot.get());
  SignatureUpdater cold_updater(&cold_graph, cold.get());

  Random rng(12);
  for (int step = 0; step < 8; ++step) {
    // Warm the cache: every single-entry read of a compressed component
    // resolves (and caches) the whole row.
    for (NodeId n = 0; n < hot_graph.num_nodes(); ++n) {
      for (uint32_t o = 0; o < objects.size(); ++o) hot->ReadEntry(n, o);
    }
    EdgeId e;
    do {
      e = static_cast<EdgeId>(rng.NextUint64(hot_graph.num_edge_slots()));
    } while (hot_graph.edge_removed(e));
    const Weight w = rng.NextInt(1, 10);
    hot_updater.SetEdgeWeight(e, w);
    cold_updater.SetEdgeWeight(e, w);

    // Entry-for-entry equivalence with the uncached twin.
    for (NodeId n = 0; n < hot_graph.num_nodes(); ++n) {
      for (uint32_t o = 0; o < objects.size(); ++o) {
        const SignatureEntry a = hot->ReadEntry(n, o);
        const SignatureEntry b = cold->ReadEntry(n, o);
        ASSERT_EQ(a.category, b.category)
            << "step " << step << " node " << n << " object " << o;
        ASSERT_EQ(a.link, b.link)
            << "step " << step << " node " << n << " object " << o;
      }
    }
    // And retrieval through the cached rows stays exact on a sample.
    for (const NodeId n : testing_util::SampleNodes(hot_graph, 4, 12)) {
      for (uint32_t o = 0; o < objects.size(); ++o) {
        ASSERT_EQ(ExactDistance(*hot, n, o), ExactDistance(*cold, n, o));
      }
    }
  }
  EXPECT_GT(hot->row_cache().entries(), 0u);  // the cache was actually live
}

}  // namespace
}  // namespace dsig
