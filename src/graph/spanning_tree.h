// Per-object shortest-path spanning trees with incremental maintenance.
//
// Signature construction (§5.2) builds the shortest-path spanning tree of
// every object; signature maintenance (§5.4) keeps those trees up to date
// under edge insertions, removals, and weight changes. The forest is the
// "intermediate result" the paper says to retain.
//
// Each (object, node) slot holds two columns and nothing else:
//   * the parent slot: the position of n's parent edge in n's own adjacency
//     list, one byte. This is exactly the signature's backtracking link
//     (Fig 3.1). A node has a parent when it is not the object and its
//     distance is finite; the parent edge, the parent node and the reverse
//     edge→object index (§5.4.2) all derive from the slot and the graph's
//     adjacency, so the index is an O(objects) probe of two slots per tree,
//     not a stored structure.
//   * the distance: a uint32 (kNarrowUnreachable = unreachable) while every
//     stored distance is a whole number below 2^32 - 1, which covers the
//     integer road weights of every network the repository generates. The
//     first distance that breaks this rule — a fractional weight from a
//     build or an update, or an overflow — widens the column to double
//     once. Whole numbers below 2^32 round-trip through double exactly, so
//     the width never changes a value.
// A slot therefore takes 5 bytes while narrow and 9 once wide.
//
// Usage: mutate the RoadNetwork first (AddEdge / RemoveEdge / SetEdgeWeight),
// then call the matching On* notification; it returns every (object, node)
// pair whose distance or parent slot changed, which the signature layer
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
  // `graph` must outlive the forest; `objects` are the dataset nodes. Every
  // parent edge must sit in one of the first 256 slots of its node's
  // adjacency list (the signature's link width bounds it tighter).
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
    const size_t slot = Slot(object_index, n);
    if (wide_) return wide_dist_[slot];
    return NarrowToWeight(narrow_dist_[slot]);
  }

  // Position of n's parent edge in n's adjacency list: the signature's
  // backtracking link. Meaningful only when n has a parent.
  uint8_t parent_slot(uint32_t object_index, NodeId n) const {
    return parent_slot_[Slot(object_index, n)];
  }

  // Previous node on the path object -> n, i.e., n's parent in the object's
  // tree. In signature terms this is the *next hop from n toward the object*.
  // kInvalidNode for the object itself and for unreachable nodes.
  NodeId parent(uint32_t object_index, NodeId n) const {
    if (!HasParent(object_index, n)) return kInvalidNode;
    return graph_->adjacency(n)[parent_slot(object_index, n)].to;
  }

  // The edge joining n to its parent; kInvalidEdge when parent() is
  // kInvalidNode.
  EdgeId parent_edge(uint32_t object_index, NodeId n) const {
    if (!HasParent(object_index, n)) return kInvalidEdge;
    return graph_->adjacency(n)[parent_slot(object_index, n)].edge_id;
  }

  // Objects whose spanning tree currently traverses `edge` (§5.4.2's reverse
  // index), in ascending order; derived from the parent slots of the edge's
  // two endpoints.
  std::vector<uint32_t> ObjectsUsingEdge(EdgeId edge) const;

  // Notifications; the graph mutation must already be applied. Each returns
  // the deduplicated set of changed tree entries.
  std::vector<TreeChange> OnEdgeAddedOrDecreased(EdgeId edge);
  std::vector<TreeChange> OnEdgeIncreasedOrRemoved(EdgeId edge);

  // Bytes held by the per-(object, node) columns: 5 per slot while the
  // distances are narrow, 9 once they are wide.
  size_t MemoryBytes() const;

 private:
  // The narrow column's "unreachable"; 2^32 - 1 itself is stored wide.
  static constexpr uint32_t kNarrowUnreachable = 0xFFFFFFFFu;

  static Weight NarrowToWeight(uint32_t d) {
    return d == kNarrowUnreachable ? kInfiniteWeight : static_cast<Weight>(d);
  }
  static bool FitsNarrow(Weight d) {
    return d == kInfiniteWeight ||
           (IsPackableDistance(d) && d < kNarrowUnreachable);
  }

  size_t Slot(uint32_t object_index, NodeId n) const {
    DSIG_CHECK_LT(object_index, objects_.size());
    DSIG_CHECK_LT(n, num_nodes_);
    return static_cast<size_t>(object_index) * num_nodes_ + n;
  }

  bool HasParent(uint32_t object_index, NodeId n) const {
    return objects_[object_index] != n &&
           dist(object_index, n) != kInfiniteWeight;
  }

  // Narrows position `index` of n's adjacency list to the one-byte column.
  static uint8_t NarrowSlot(NodeId n, uint32_t index);
  uint8_t AdjacencySlot(NodeId n, EdgeId edge) const {
    return NarrowSlot(n, graph_->AdjacencyIndexOf(n, edge));
  }

  // Stores `d`, widening the distance column first if `d` does not fit it.
  void SetDist(size_t slot, Weight d) {
    if (!wide_ && !FitsNarrow(d)) Widen();
    StoreDist(slot, d);
  }
  // Stores `d` in the column in use, which `d` must fit.
  void StoreDist(size_t slot, Weight d) {
    if (wide_) {
      wide_dist_[slot] = d;
    } else {
      narrow_dist_[slot] = d == kInfiniteWeight ? kNarrowUnreachable
                                                : static_cast<uint32_t>(d);
    }
  }
  void SetParent(uint32_t object_index, NodeId n, Weight d,
                 uint8_t parent_slot) {
    const size_t slot = Slot(object_index, n);
    SetDist(slot, d);
    parent_slot_[slot] = parent_slot;
  }
  // Converts the distance column from uint32 to double (once).
  void Widen();

  // Collects the subtree of object #object_index rooted at `root` (children
  // discovered through adjacency + parent edges).
  std::vector<NodeId> CollectSubtree(uint32_t object_index, NodeId root) const;

  const RoadNetwork* graph_;
  std::vector<NodeId> objects_;
  size_t num_nodes_ = 0;
  bool built_ = false;

  // Row-major [object][node] columns. Exactly one distance column is in
  // use: narrow_dist_ until wide_, then wide_dist_.
  std::vector<uint8_t> parent_slot_;
  std::vector<uint32_t> narrow_dist_;
  std::vector<Weight> wide_dist_;
  bool wide_ = false;
};

}  // namespace dsig

#endif  // DSIG_GRAPH_SPANNING_TREE_H_
