#include "graph/spanning_tree.h"

#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <vector>

#include "graph/dijkstra.h"
#include "graph/graph_generator.h"
#include "tests/test_util.h"
#include "workload/dataset_generator.h"

namespace dsig {
namespace {

// Checks every forest entry against fresh Dijkstra runs.
void ExpectForestMatchesDijkstra(const RoadNetwork& g,
                                 const SpanningForest& forest) {
  for (uint32_t o = 0; o < forest.num_objects(); ++o) {
    const ShortestPathTree tree = RunDijkstra(g, forest.objects()[o]);
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      EXPECT_EQ(forest.dist(o, n), tree.dist[n])
          << "object " << o << " node " << n;
      // The parent need not be identical (equal-length paths), but it must
      // be distance-consistent: dist(parent) + w(parent_edge) == dist(n).
      if (forest.parent(o, n) != kInvalidNode) {
        const EdgeId e = forest.parent_edge(o, n);
        ASSERT_NE(e, kInvalidEdge);
        EXPECT_FALSE(g.edge_removed(e));
        EXPECT_EQ(forest.dist(o, forest.parent(o, n)) + g.edge_weight(e),
                  forest.dist(o, n))
            << "object " << o << " node " << n;
      } else {
        EXPECT_TRUE(forest.objects()[o] == n ||
                    tree.dist[n] == kInfiniteWeight);
      }
    }
  }
}

// Checks the lookups derived from the parent edges against brute force:
// ObjectsUsingEdge(e) must list exactly the objects with some node whose
// parent edge is e, and parent(o, n) must be the far end of parent_edge(o, n).
void ExpectDerivedLookupsMatchParentEdges(const RoadNetwork& g,
                                          const SpanningForest& forest) {
  std::vector<std::set<uint32_t>> users(g.num_edge_slots());
  for (uint32_t o = 0; o < forest.num_objects(); ++o) {
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      const EdgeId e = forest.parent_edge(o, n);
      if (e == kInvalidEdge) {
        EXPECT_EQ(forest.parent(o, n), kInvalidNode)
            << "object " << o << " node " << n;
        continue;
      }
      users[e].insert(o);
      const auto [a, b] = g.edge_endpoints(e);
      ASSERT_TRUE(a == n || b == n) << "object " << o << " node " << n;
      EXPECT_EQ(forest.parent(o, n), a == n ? b : a)
          << "object " << o << " node " << n;
    }
  }
  for (EdgeId e = 0; e < g.num_edge_slots(); ++e) {
    EXPECT_EQ(forest.ObjectsUsingEdge(e),
              std::vector<uint32_t>(users[e].begin(), users[e].end()))
        << "edge " << e;
  }
}

TEST(SpanningForestTest, BuildMatchesDijkstra) {
  const RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  SpanningForest forest(&g, {1, 5});
  forest.Build();
  ExpectForestMatchesDijkstra(g, forest);
}

TEST(SpanningForestTest, DerivedLookupsMatchParentEdges) {
  const RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  SpanningForest forest(&g, {0, 4, 6});
  forest.Build();
  ExpectDerivedLookupsMatchParentEdges(g, forest);
}

// A repair that moves a node onto a parallel edge to the same parent keeps
// its distance and parent node, but its parent edge (and so its signature
// link) changed: the notification must report it.
TEST(SpanningForestTest, MoveOntoParallelEdgeIsReported) {
  RoadNetwork g;
  for (int i = 0; i < 3; ++i) g.AddNode({static_cast<double>(i), 0});
  const EdgeId first = g.AddEdge(0, 1, 5);
  const EdgeId twin = g.AddEdge(0, 1, 5);
  g.AddEdge(1, 2, 3);
  SpanningForest forest(&g, {0});
  forest.Build();
  ASSERT_EQ(forest.parent_edge(0, 1), first);
  g.SetEdgeWeight(first, 10);
  const std::vector<TreeChange> changes =
      forest.OnEdgeIncreasedOrRemoved(first);
  EXPECT_EQ(forest.parent_edge(0, 1), twin);
  EXPECT_EQ(forest.parent(0, 1), 0u);
  EXPECT_EQ(forest.dist(0, 2), 8);
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].node, 1u);
  ExpectForestMatchesDijkstra(g, forest);
  ExpectDerivedLookupsMatchParentEdges(g, forest);
}

TEST(SpanningForestTest, WeightDecreasePropagates) {
  RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  SpanningForest forest(&g, {0});
  forest.Build();
  EXPECT_EQ(forest.dist(0, 5), 12);
  // Shorten edge 4-5 from 8 to 1: d(0,5) becomes 0-3-4-5 = 5.
  const EdgeId e = g.FindEdge(4, 5);
  g.SetEdgeWeight(e, 1);
  const std::vector<TreeChange> changes = forest.OnEdgeAddedOrDecreased(e);
  EXPECT_FALSE(changes.empty());
  EXPECT_EQ(forest.dist(0, 5), 5);
  ExpectForestMatchesDijkstra(g, forest);
}

TEST(SpanningForestTest, EdgeAdditionPropagates) {
  RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  SpanningForest forest(&g, {0, 6});
  forest.Build();
  EXPECT_EQ(forest.dist(0, 6), 11);
  // New shortcut 0-6 of weight 2.
  const EdgeId e = g.AddEdge(0, 6, 2);
  forest.OnEdgeAddedOrDecreased(e);
  EXPECT_EQ(forest.dist(0, 6), 2);
  ExpectForestMatchesDijkstra(g, forest);
}

TEST(SpanningForestTest, WeightIncreaseRepairsSubtree) {
  RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  SpanningForest forest(&g, {0});
  forest.Build();
  // 0-3 carries nodes 3, 4, 6 (and possibly 5). Increase it drastically.
  const EdgeId e = g.FindEdge(0, 3);
  g.SetEdgeWeight(e, 50);
  const std::vector<TreeChange> changes =
      forest.OnEdgeIncreasedOrRemoved(e);
  EXPECT_FALSE(changes.empty());
  EXPECT_EQ(forest.dist(0, 3), 10);  // now 0-1-4-3
  EXPECT_EQ(forest.dist(0, 4), 9);   // 0-1-4
  ExpectForestMatchesDijkstra(g, forest);
}

TEST(SpanningForestTest, EdgeRemovalRepairsSubtree) {
  RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  SpanningForest forest(&g, {2});
  forest.Build();
  const EdgeId e = g.FindEdge(2, 5);
  g.RemoveEdge(e);
  forest.OnEdgeIncreasedOrRemoved(e);
  ExpectForestMatchesDijkstra(g, forest);
  EXPECT_EQ(forest.dist(0, 5), 6 + 5 + 8);  // object index 0 (node 2): 2-1-4-5
}

TEST(SpanningForestTest, IncreaseOfUnusedEdgeChangesNothing) {
  RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  SpanningForest forest(&g, {0});
  forest.Build();
  // Find an edge no tree uses: 4-5 is not on any shortest path from 0
  // (d(0,5) = 12 via 0-1-2-5 = 12, tie with 0-3-4-5 = 12 — depends on the
  // tie; use 1-4 instead if used). Pick an edge no tree uses.
  EdgeId unused = kInvalidEdge;
  for (EdgeId e = 0; e < g.num_edge_slots(); ++e) {
    if (forest.ObjectsUsingEdge(e).empty()) {
      unused = e;
      break;
    }
  }
  ASSERT_NE(unused, kInvalidEdge);
  g.SetEdgeWeight(unused, g.edge_weight(unused) + 5);
  EXPECT_TRUE(forest.OnEdgeIncreasedOrRemoved(unused).empty());
  ExpectForestMatchesDijkstra(g, forest);
}

// The narrow distance column holds whole distances up to 2^32 - 2. A
// distance of exactly 2^32 - 1, its unreachable marker, widens the column
// to double and keeps its value.
TEST(SpanningForestTest, WholeDistanceOfTwoPow32MinusOneWidens) {
  RoadNetwork g;
  for (int i = 0; i < 3; ++i) g.AddNode({static_cast<double>(i), 0});
  const EdgeId first = g.AddEdge(0, 1, 1);
  g.AddEdge(1, 2, 4294967293.0);
  SpanningForest forest(&g, {0});
  forest.Build();
  EXPECT_EQ(forest.dist(0, 2), 4294967294.0);
  EXPECT_EQ(forest.MemoryBytes(), 5u * 3);

  g.SetEdgeWeight(first, 2);
  forest.OnEdgeIncreasedOrRemoved(first);
  EXPECT_EQ(forest.dist(0, 2), 4294967295.0);
  EXPECT_EQ(forest.MemoryBytes(), 9u * 3);
  ExpectForestMatchesDijkstra(g, forest);
  ExpectDerivedLookupsMatchParentEdges(g, forest);
}

// How a random update sequence draws its weights. Whole weights keep the
// distance column narrow (5 B per slot); quarter units, from the build on,
// make it wide (9 B); the third kind stays whole until one fractional edge
// insertion mid-sequence widens it.
enum class Weights { kWhole, kQuarter, kWidenMidStream };

struct UpdateCase {
  uint64_t seed;
  Weights weights;
};

// Test names carry the seed; each weight kind has its own prefix.
void PrintTo(const UpdateCase& c, std::ostream* os) { *os << c.seed; }

std::vector<UpdateCase> CasesWith(Weights weights) {
  std::vector<UpdateCase> cases;
  for (const uint64_t seed : {1, 2, 3, 5, 8}) cases.push_back({seed, weights});
  return cases;
}

// Property: a random sequence of updates — including parallel edges and
// removals — leaves the forest identical to a freshly built one, and the
// derived lookups consistent with the parent edges after every step.
class SpanningForestUpdateTest : public ::testing::TestWithParam<UpdateCase> {
};

TEST_P(SpanningForestUpdateTest, RandomUpdateSequenceMatchesRebuild) {
  const uint64_t seed = GetParam().seed;
  const Weights weights = GetParam().weights;
  const Weight unit = weights == Weights::kQuarter ? 0.25 : 1;
  RoadNetwork g = MakeRandomPlanar({.num_nodes = 300, .seed = seed});
  for (EdgeId e = 0; e < g.num_edge_slots(); ++e) {
    g.SetEdgeWeight(e, g.edge_weight(e) * unit);
  }
  const std::vector<NodeId> objects = UniformDataset(g, 0.03, seed);
  SpanningForest forest(&g, objects);
  forest.Build();
  const size_t slots = forest.num_objects() * g.num_nodes();
  EXPECT_EQ(forest.MemoryBytes(),
            (weights == Weights::kQuarter ? 9 : 5) * slots);

  Random rng(seed * 31 + 1);
  for (int step = 0; step < 60; ++step) {
    if (weights == Weights::kWidenMidStream && step == 30) {
      // Half a unit from an object to any other node is a shortcut, so the
      // object's tree takes a distance of 0.5.
      EXPECT_EQ(forest.MemoryBytes(), 5 * slots);
      const NodeId u = (objects[0] + 1) % static_cast<NodeId>(g.num_nodes());
      forest.OnEdgeAddedOrDecreased(g.AddEdge(objects[0], u, 0.5));
      EXPECT_EQ(forest.dist(0, u), 0.5);
      EXPECT_EQ(forest.MemoryBytes(), 9 * slots);
      ExpectForestMatchesDijkstra(g, forest);
      ExpectDerivedLookupsMatchParentEdges(g, forest);
    }
    const int action = static_cast<int>(rng.NextUint64(5));
    if (action == 0) {
      // Random new edge.
      const NodeId u = static_cast<NodeId>(rng.NextUint64(g.num_nodes()));
      NodeId v = static_cast<NodeId>(rng.NextUint64(g.num_nodes()));
      if (v == u) v = (v + 1) % static_cast<NodeId>(g.num_nodes());
      const EdgeId e = g.AddEdge(u, v, rng.NextInt(1, 10) * unit);
      forest.OnEdgeAddedOrDecreased(e);
      ExpectDerivedLookupsMatchParentEdges(g, forest);
      continue;
    }
    const EdgeId e = static_cast<EdgeId>(rng.NextUint64(g.num_edge_slots()));
    if (g.edge_removed(e)) continue;
    if (action == 1) {
      // Parallel twin of a live edge, often with the same weight (a tie the
      // original keeps until it is raised or removed).
      const auto [u, v] = g.edge_endpoints(e);
      const Weight w = rng.NextUint64(2) == 0 ? g.edge_weight(e)
                                              : rng.NextInt(1, 10) * unit;
      forest.OnEdgeAddedOrDecreased(g.AddEdge(u, v, w));
    } else if (action == 2) {
      g.RemoveEdge(e);
      forest.OnEdgeIncreasedOrRemoved(e);
    } else {
      const Weight old_w = g.edge_weight(e);
      const Weight new_w = rng.NextInt(1, 10) * unit;
      if (new_w == old_w) continue;
      g.SetEdgeWeight(e, new_w);
      if (new_w < old_w) {
        forest.OnEdgeAddedOrDecreased(e);
      } else {
        forest.OnEdgeIncreasedOrRemoved(e);
      }
    }
    ExpectDerivedLookupsMatchParentEdges(g, forest);
  }
  ExpectForestMatchesDijkstra(g, forest);
  EXPECT_EQ(forest.MemoryBytes(),
            (weights == Weights::kWhole ? 5 : 9) * slots);
}

// `Seeds` is the whole-weight sequence.
INSTANTIATE_TEST_SUITE_P(Seeds, SpanningForestUpdateTest,
                         ::testing::ValuesIn(CasesWith(Weights::kWhole)));
INSTANTIATE_TEST_SUITE_P(QuarterWeights, SpanningForestUpdateTest,
                         ::testing::ValuesIn(CasesWith(Weights::kQuarter)));
INSTANTIATE_TEST_SUITE_P(
    WidenMidStream, SpanningForestUpdateTest,
    ::testing::ValuesIn(CasesWith(Weights::kWidenMidStream)));

}  // namespace
}  // namespace dsig
