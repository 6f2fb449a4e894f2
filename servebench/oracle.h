// Ground truth for bench_serve: exact object-to-node distances from one
// Dijkstra per object, and checkers that compare served answers to them.
//
// Generated networks have integer edge weights, so every distance is an
// exact double and every comparison below is exact. The checkers are
// tie-aware: when several objects share a distance, any of them may fill
// the last kNN slot, so kNN answers are compared as distance multisets.
#ifndef SERVEBENCH_ORACLE_H_
#define SERVEBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/road_network.h"
#include "serve/protocol.h"

namespace servebench {

using dsig::NodeId;
using dsig::Weight;

using PairList = std::vector<std::pair<uint32_t, uint32_t>>;

class Oracle {
 public:
  // One Dijkstra per object over `graph` as it is now, spread over the
  // process-wide thread pool.
  Oracle(const dsig::RoadNetwork& graph, std::vector<NodeId> objects);

  // d(object, node).
  Weight Distance(uint32_t object, NodeId node) const {
    return dist_[static_cast<size_t>(node) * objects_.size() + object];
  }

  // Every (a, b) with d(a, b) <= epsilon, ordered — the ε-join answer under
  // the library's JoinPair convention (ordered pairs, (a, a) included).
  PairList JoinPairs(Weight epsilon) const;

  // Exact checks. Each returns "" when the answer is right, else a reason.
  // A non-OK status or a degraded tag is always wrong here: the bench sets
  // no deadlines and never loads the server enough to degrade.
  std::string CheckKnn(NodeId node, uint32_t k, int type,
                       const dsig::serve::Response& response) const;
  std::string CheckRange(NodeId node, Weight epsilon,
                         const dsig::serve::Response& response) const;

 private:
  std::vector<NodeId> objects_;
  // Node-major, num_nodes x num_objects, so checking one query's answer
  // reads one contiguous row.
  std::vector<Weight> dist_;
};

// `expected` must be sorted (JoinPairs' order).
std::string CheckJoin(const PairList& expected,
                      const dsig::serve::Response& response);

// Checks that hold whatever the graph's weights are, for answers served
// while updates change it: valid, distinct object ids, the right count,
// and type-1 distances non-decreasing.
std::string CheckKnnShape(size_t num_objects, uint32_t k, int type,
                          const dsig::serve::Response& response);
std::string CheckRangeShape(size_t num_objects,
                            const dsig::serve::Response& response);

}  // namespace servebench

#endif  // SERVEBENCH_ORACLE_H_
