// Per-object shortest-path spanning trees with incremental maintenance.
//
// Signature construction (§5.2) builds the shortest-path spanning tree of
// every object; signature maintenance (§5.4) keeps those trees up to date
// under edge insertions, removals, and weight changes. The forest is the
// "intermediate result" the paper says to retain.
//
// Each tree is stored as one parent edge per node and nothing else: a node's
// parent is the far endpoint of its parent edge, and a tree uses edge (a, b)
// iff that edge is the parent edge of a or of b. The paper's reverse
// edge→object index (§5.4.2) is therefore an O(objects) probe of two slots
// per tree, not a stored structure.
//
// Usage: mutate the RoadNetwork first (AddEdge / RemoveEdge / SetEdgeWeight),
// then call the matching On* notification; it returns every (object, node)
// pair whose distance or parent edge changed, which the signature layer
// translates into category/link rewrites.
#ifndef DSIG_GRAPH_SPANNING_TREE_H_
#define DSIG_GRAPH_SPANNING_TREE_H_

#include <cstdint>
#include <vector>

#include "graph/road_network.h"

namespace dsig {

class ThreadPool;

// One tree-entry change produced by an update notification.
struct TreeChange {
  uint32_t object_index;  // position in objects(), not the node id
  NodeId node;
};

class SpanningForest {
 public:
  // `graph` must outlive the forest; `objects` are the dataset nodes.
  // Call Build() before any query.
  SpanningForest(const RoadNetwork* graph, std::vector<NodeId> objects);

  SpanningForest(SpanningForest&&) = default;
  SpanningForest& operator=(SpanningForest&&) = default;
  SpanningForest(const SpanningForest&) = delete;
  SpanningForest& operator=(const SpanningForest&) = delete;

  // Runs one Dijkstra per object. The node count of the graph is frozen from
  // this point on (edges may still change).
  // The Dijkstras run on `pool` (nullptr = the process-wide pool); each
  // writes a disjoint row-major slice, so the result does not depend on the
  // pool size.
  void Build(ThreadPool* pool = nullptr);

  size_t num_objects() const { return objects_.size(); }
  const std::vector<NodeId>& objects() const { return objects_; }

  // Network distance from object #object_index to `n` (kInfiniteWeight when
  // unreachable).
  Weight dist(uint32_t object_index, NodeId n) const {
    return dist_[Slot(object_index, n)];
  }

  // Previous node on the path object -> n, i.e., n's parent in the object's
  // tree. In signature terms this is the *next hop from n toward the object*.
  // kInvalidNode for the object itself and for unreachable nodes.
  NodeId parent(uint32_t object_index, NodeId n) const {
    const EdgeId edge = parent_edge(object_index, n);
    if (edge == kInvalidEdge) return kInvalidNode;
    const auto [a, b] = graph_->edge_endpoints(edge);
    return a == n ? b : a;
  }

  EdgeId parent_edge(uint32_t object_index, NodeId n) const {
    return parent_edge_[Slot(object_index, n)];
  }

  // Objects whose spanning tree currently traverses `edge` (§5.4.2's reverse
  // index), in ascending order; derived from the parent edges of the edge's
  // two endpoints.
  std::vector<uint32_t> ObjectsUsingEdge(EdgeId edge) const;

  // Notifications; the graph mutation must already be applied. Each returns
  // the deduplicated set of changed tree entries.
  std::vector<TreeChange> OnEdgeAddedOrDecreased(EdgeId edge);
  std::vector<TreeChange> OnEdgeIncreasedOrRemoved(EdgeId edge);

 private:
  size_t Slot(uint32_t object_index, NodeId n) const {
    DSIG_CHECK_LT(object_index, objects_.size());
    DSIG_CHECK_LT(n, num_nodes_);
    return static_cast<size_t>(object_index) * num_nodes_ + n;
  }

  // Collects the subtree of object #object_index rooted at `root` (children
  // discovered through adjacency + parent edges).
  std::vector<NodeId> CollectSubtree(uint32_t object_index, NodeId root) const;

  const RoadNetwork* graph_;
  std::vector<NodeId> objects_;
  size_t num_nodes_ = 0;
  bool built_ = false;

  // Row-major [object][node] arrays.
  std::vector<Weight> dist_;
  std::vector<EdgeId> parent_edge_;
};

}  // namespace dsig

#endif  // DSIG_GRAPH_SPANNING_TREE_H_
