// Shared helpers for the test suite.
#ifndef DSIG_TESTS_TEST_UTIL_H_
#define DSIG_TESTS_TEST_UTIL_H_

#include <vector>

#include "core/row_stage.h"
#include "core/signature_index.h"
#include "graph/dijkstra.h"
#include "graph/graph_generator.h"
#include "graph/road_network.h"
#include "util/random.h"

namespace dsig {
namespace testing_util {

// The 7-node network of the paper's Fig 3.1-style examples: a small
// connected graph with integer weights, handy for hand-checkable cases.
//
//      n0 --4-- n1 --6-- n2
//      |        |        |
//      3        5        2
//      |        |        |
//      n3 --1-- n4 --8-- n5
//               |
//               7
//               |
//               n6
inline RoadNetwork MakeSevenNodeNetwork() {
  RoadNetwork g;
  for (int i = 0; i < 7; ++i) {
    g.AddNode({static_cast<double>(i % 3), static_cast<double>(i / 3)});
  }
  g.AddEdge(0, 1, 4);
  g.AddEdge(1, 2, 6);
  g.AddEdge(0, 3, 3);
  g.AddEdge(1, 4, 5);
  g.AddEdge(2, 5, 2);
  g.AddEdge(3, 4, 1);
  g.AddEdge(4, 5, 8);
  g.AddEdge(4, 6, 7);
  return g;
}

// Ground-truth distances from every node in `sources`.
inline std::vector<std::vector<Weight>> BruteForceDistances(
    const RoadNetwork& graph, const std::vector<NodeId>& sources) {
  std::vector<std::vector<Weight>> result;
  result.reserve(sources.size());
  for (const NodeId s : sources) {
    result.push_back(RunDijkstra(graph, s).dist);
  }
  return result;
}

// A stage's entries as one vector, for whole-row comparisons.
inline SignatureRow StageEntries(const RowStage& stage) {
  SignatureRow row(stage.size());
  for (uint32_t i = 0; i < stage.size(); ++i) row[i] = stage.entry(i);
  return row;
}

// Node `n`'s resolved row, read through SignatureIndex::ReadRowStaged.
inline SignatureRow StagedRow(const SignatureIndex& index, NodeId n) {
  RowStage stage;
  index.ReadRowStaged(n, &stage);
  return StageEntries(stage);
}

// Distinct random nodes.
inline std::vector<NodeId> SampleNodes(const RoadNetwork& graph, size_t count,
                                       uint64_t seed) {
  Random rng(seed);
  std::vector<bool> used(graph.num_nodes(), false);
  std::vector<NodeId> nodes;
  while (nodes.size() < count) {
    const NodeId n = static_cast<NodeId>(rng.NextUint64(graph.num_nodes()));
    if (used[n]) continue;
    used[n] = true;
    nodes.push_back(n);
  }
  return nodes;
}

}  // namespace testing_util
}  // namespace dsig

#endif  // DSIG_TESTS_TEST_UTIL_H_
