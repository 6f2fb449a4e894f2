// Road-network graph model (paper §1): a simple undirected weighted graph
// where vertices are road junctions, edges are road segments, and edge
// weights are travel distances. Dataset objects (hospitals, restaurants, …)
// live on nodes.
//
// Two structural guarantees matter for the distance-signature index:
//   * Adjacency order is stable: a signature's backtracking link is the
//     *position* of the next hop inside the node's adjacency list (§3.1), so
//     positions must never shift. Edge removal therefore tombstones the slot
//     instead of erasing it.
//   * Every undirected edge has a dense EdgeId shared by both directions,
//     which the spanning trees store as parent edges and the update
//     machinery (§5.4) uses to find the trees an edge belongs to.
#ifndef DSIG_GRAPH_ROAD_NETWORK_H_
#define DSIG_GRAPH_ROAD_NETWORK_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/logging.h"

namespace dsig {

using NodeId = uint32_t;
using EdgeId = uint32_t;
using ObjectId = uint32_t;
using Weight = double;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr EdgeId kInvalidEdge = std::numeric_limits<EdgeId>::max();
inline constexpr ObjectId kInvalidObject =
    std::numeric_limits<ObjectId>::max();
inline constexpr Weight kInfiniteWeight =
    std::numeric_limits<Weight>::infinity();

// True when `d` round-trips through a uint64_t bit for bit: whole,
// non-negative (and not -0.0), below 2^53. NaN fails the comparison. The
// hub-label blob and the spanning forest store such distances as integers.
inline bool IsPackableDistance(Weight d) {
  return !std::signbit(d) && d < 0x1p53 && d == std::floor(d);
}

// 2-D planar position of a junction. Used by the generators, the NVP R-tree,
// and Euclidean heuristics; network distances never depend on it.
struct Point {
  double x = 0;
  double y = 0;
};

// One directed half of an undirected road segment, stored in the adjacency
// list of its tail node.
struct AdjacencyEntry {
  NodeId to = kInvalidNode;
  Weight weight = 0;
  EdgeId edge_id = kInvalidEdge;
  bool removed = false;  // tombstone: slot kept so adjacency indices are stable
};

class RoadNetwork {
 public:
  RoadNetwork() = default;

  // Movable but not copyable: indexes hold node/edge ids into one instance.
  RoadNetwork(RoadNetwork&&) = default;
  RoadNetwork& operator=(RoadNetwork&&) = default;
  RoadNetwork(const RoadNetwork&) = delete;
  RoadNetwork& operator=(const RoadNetwork&) = delete;

  // Adds an isolated junction at `position` and returns its id.
  NodeId AddNode(Point position);

  // Adds an undirected road segment of positive weight between distinct
  // existing nodes; returns its EdgeId. Parallel edges are permitted (real
  // road data contains them); self-loops are not.
  EdgeId AddEdge(NodeId u, NodeId v, Weight weight);

  // Tombstones the edge in both adjacency lists. The EdgeId stays allocated.
  void RemoveEdge(EdgeId edge);

  // Updates the weight of a live edge (both directions).
  void SetEdgeWeight(EdgeId edge, Weight weight);

  size_t num_nodes() const { return adjacency_.size(); }
  // Live (non-tombstoned) undirected edges.
  size_t num_edges() const { return num_live_edges_; }
  // All EdgeIds ever allocated, live or removed.
  size_t num_edge_slots() const { return edge_endpoints_.size(); }

  const Point& position(NodeId n) const { return positions_[n]; }

  // Repositions a junction (e.g., when coordinates arrive in a separate
  // file, as in the DIMACS format). Never affects network distances.
  void SetPosition(NodeId n, Point position) {
    DSIG_CHECK_LT(n, positions_.size());
    positions_[n] = position;
  }

  // Full adjacency list of `n`, including tombstones; callers iterating for
  // graph traversal must skip entries with `removed == true`.
  const std::vector<AdjacencyEntry>& adjacency(NodeId n) const {
    return adjacency_[n];
  }

  // Number of adjacency slots of `n` (including tombstones) — the paper's
  // "degree" bound R used to size backtracking links.
  size_t degree(NodeId n) const { return adjacency_[n].size(); }

  // Largest adjacency slot count over all nodes (>= 1 when any edge exists).
  size_t max_degree() const;

  // Endpoints of `edge` (valid also for removed edges).
  std::pair<NodeId, NodeId> edge_endpoints(EdgeId edge) const {
    return edge_endpoints_[edge];
  }

  Weight edge_weight(EdgeId edge) const;
  bool edge_removed(EdgeId edge) const;

  // Position of `edge` within `n`'s adjacency list; `n` must be an endpoint.
  uint32_t AdjacencyIndexOf(NodeId n, EdgeId edge) const;

  // First live edge between u and v, or kInvalidEdge.
  EdgeId FindEdge(NodeId u, NodeId v) const;

  // True when every node can reach node 0 through live edges.
  bool IsConnected() const;

 private:
  std::vector<std::vector<AdjacencyEntry>> adjacency_;
  std::vector<Point> positions_;
  std::vector<std::pair<NodeId, NodeId>> edge_endpoints_;
  size_t num_live_edges_ = 0;
};

}  // namespace dsig

#endif  // DSIG_GRAPH_ROAD_NETWORK_H_
