#include "graph/spanning_tree.h"

#include <algorithm>
#include <deque>
#include <mutex>
#include <queue>
#include <shared_mutex>
#include <tuple>
#include <utility>

#include "graph/dijkstra.h"
#include "util/thread_pool.h"

namespace dsig {

SpanningForest::SpanningForest(const RoadNetwork* graph,
                               std::vector<NodeId> objects)
    : graph_(graph), objects_(std::move(objects)) {
  DSIG_CHECK(graph_ != nullptr);
}

void SpanningForest::Build(ThreadPool* pool) {
  num_nodes_ = graph_->num_nodes();
  const size_t slots = objects_.size() * num_nodes_;
  parent_slot_.assign(slots, 0);
  narrow_dist_.assign(slots, kNarrowUnreachable);
  std::vector<Weight>().swap(wide_dist_);
  wide_ = false;

  // The per-object Dijkstras are independent (§5.2); run them on the shared
  // pool (steal-balanced: a central object's Dijkstra settles far more nodes
  // than a peripheral one's). Each writes a disjoint row-major slice under a
  // shared lock; the first tree whose distances do not fit the narrow column
  // takes the lock exclusively to widen it, so the width is decided by the
  // distances alone and not by the pool size.
  if (pool == nullptr) pool = &ThreadPool::Global();
  std::shared_mutex widen_mu;
  pool->ParallelFor(objects_.size(), [&](size_t o) {
    const ShortestPathTree tree = RunDijkstra(*graph_, objects_[o]);
    if (!std::all_of(tree.dist.begin(), tree.dist.end(), FitsNarrow)) {
      const std::unique_lock<std::shared_mutex> lock(widen_mu);
      if (!wide_) Widen();
    }
    const std::shared_lock<std::shared_mutex> lock(widen_mu);
    for (NodeId n = 0; n < num_nodes_; ++n) {
      const size_t slot = Slot(static_cast<uint32_t>(o), n);
      StoreDist(slot, tree.dist[n]);
      if (tree.parent_edge[n] != kInvalidEdge) {
        parent_slot_[slot] = AdjacencySlot(n, tree.parent_edge[n]);
      }
    }
  });
  built_ = true;
}

size_t SpanningForest::MemoryBytes() const {
  return parent_slot_.capacity() * sizeof(uint8_t) +
         narrow_dist_.capacity() * sizeof(uint32_t) +
         wide_dist_.capacity() * sizeof(Weight);
}

uint8_t SpanningForest::NarrowSlot(NodeId n, uint32_t index) {
  DSIG_CHECK_LT(index, 256u) << "parent edge of node " << n
                             << " lies beyond the 8-bit parent slot";
  return static_cast<uint8_t>(index);
}

void SpanningForest::Widen() {
  wide_dist_.resize(narrow_dist_.size());
  std::transform(narrow_dist_.begin(), narrow_dist_.end(), wide_dist_.begin(),
                 NarrowToWeight);
  std::vector<uint32_t>().swap(narrow_dist_);
  wide_ = true;
}

std::vector<uint32_t> SpanningForest::ObjectsUsingEdge(EdgeId edge) const {
  std::vector<uint32_t> users;
  if (edge >= graph_->num_edge_slots()) return users;
  const auto [a, b] = graph_->edge_endpoints(edge);
  const uint32_t slot_in_a = graph_->AdjacencyIndexOf(a, edge);
  const uint32_t slot_in_b = graph_->AdjacencyIndexOf(b, edge);
  for (uint32_t o = 0; o < objects_.size(); ++o) {
    if ((parent_slot(o, a) == slot_in_a && HasParent(o, a)) ||
        (parent_slot(o, b) == slot_in_b && HasParent(o, b))) {
      users.push_back(o);
    }
  }
  return users;
}

std::vector<NodeId> SpanningForest::CollectSubtree(uint32_t object_index,
                                                   NodeId root) const {
  std::vector<NodeId> subtree = {root};
  for (size_t i = 0; i < subtree.size(); ++i) {
    const NodeId u = subtree[i];
    for (const AdjacencyEntry& entry : graph_->adjacency(u)) {
      // `entry.to` is a child of u in this tree iff its parent edge is this
      // very edge (which also tells parallel edges apart). Removed edges can
      // still be tree edges right after RemoveEdge — that is exactly the case
      // the caller is repairing.
      if (parent_edge(object_index, entry.to) == entry.edge_id) {
        subtree.push_back(entry.to);
      }
    }
  }
  return subtree;
}

std::vector<TreeChange> SpanningForest::OnEdgeAddedOrDecreased(EdgeId edge) {
  DSIG_CHECK(built_);
  DSIG_CHECK_EQ(num_nodes_, graph_->num_nodes())
      << "nodes were added after Build(); rebuild the forest";
  const auto [ea, eb] = graph_->edge_endpoints(edge);
  const Weight w = graph_->edge_weight(edge);

  std::vector<TreeChange> changes;
  // A shorter edge can only help, so relax it in every object's tree and
  // propagate improvements (paper §5.4.1). Only decreases flow, so a simple
  // label-correcting queue terminates.
  for (uint32_t o = 0; o < objects_.size(); ++o) {
    std::deque<NodeId> queue;
    const auto relax = [&](NodeId from, NodeId to, Weight weight,
                           EdgeId via) {
      const Weight base = dist(o, from);
      if (base == kInfiniteWeight) return;
      const Weight nd = base + weight;
      if (nd < dist(o, to)) {
        SetParent(o, to, nd, AdjacencySlot(to, via));
        changes.push_back({o, to});
        queue.push_back(to);
      }
    };
    relax(ea, eb, w, edge);
    relax(eb, ea, w, edge);
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      for (const AdjacencyEntry& entry : graph_->adjacency(u)) {
        if (entry.removed) continue;
        relax(u, entry.to, entry.weight, entry.edge_id);
      }
    }
  }
  std::sort(changes.begin(), changes.end(),
            [](const TreeChange& x, const TreeChange& y) {
              return std::tie(x.object_index, x.node) <
                     std::tie(y.object_index, y.node);
            });
  changes.erase(std::unique(changes.begin(), changes.end(),
                            [](const TreeChange& x, const TreeChange& y) {
                              return x.object_index == y.object_index &&
                                     x.node == y.node;
                            }),
                changes.end());
  return changes;
}

std::vector<TreeChange> SpanningForest::OnEdgeIncreasedOrRemoved(EdgeId edge) {
  DSIG_CHECK(built_);
  DSIG_CHECK_EQ(num_nodes_, graph_->num_nodes())
      << "nodes were added after Build(); rebuild the forest";
  // Only trees routing through this edge are affected (§5.4.2).
  const std::vector<uint32_t> affected = ObjectsUsingEdge(edge);

  const auto [ea, eb] = graph_->edge_endpoints(edge);
  std::vector<TreeChange> changes;
  for (const uint32_t o : affected) {
    // The child endpoint is the one whose parent edge is this edge.
    const NodeId child = parent_edge(o, ea) == edge ? ea : eb;

    // Invalidate the whole subtree hanging below the weakened edge, then
    // repair it with a Dijkstra seeded from the frontier of intact nodes.
    const std::vector<NodeId> subtree = CollectSubtree(o, child);
    std::vector<bool> in_subtree(num_nodes_, false);
    std::vector<Weight> old_dist(subtree.size());
    std::vector<uint8_t> old_parent_slot(subtree.size());
    for (size_t i = 0; i < subtree.size(); ++i) {
      in_subtree[subtree[i]] = true;
      old_dist[i] = dist(o, subtree[i]);
      old_parent_slot[i] = parent_slot(o, subtree[i]);
      SetDist(Slot(o, subtree[i]), kInfiniteWeight);
    }

    using Entry = std::pair<Weight, NodeId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    for (const NodeId s : subtree) {
      const std::vector<AdjacencyEntry>& adjacency = graph_->adjacency(s);
      for (uint32_t i = 0; i < adjacency.size(); ++i) {
        const AdjacencyEntry& entry = adjacency[i];
        if (entry.removed || in_subtree[entry.to]) continue;
        const Weight base = dist(o, entry.to);
        if (base == kInfiniteWeight) continue;
        const Weight nd = base + entry.weight;
        if (nd < dist(o, s)) {
          SetParent(o, s, nd, NarrowSlot(s, i));
          heap.push({nd, s});
        }
      }
    }
    std::vector<bool> settled(num_nodes_, false);
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (settled[u] || d > dist(o, u)) continue;
      settled[u] = true;
      for (const AdjacencyEntry& entry : graph_->adjacency(u)) {
        if (entry.removed || !in_subtree[entry.to]) continue;
        const Weight nd = d + entry.weight;
        if (nd < dist(o, entry.to)) {
          SetParent(o, entry.to, nd, AdjacencySlot(entry.to, entry.edge_id));
          heap.push({nd, entry.to});
        }
      }
    }
    for (size_t i = 0; i < subtree.size(); ++i) {
      // The distance changed (possibly to unreachable: the removal
      // disconnected the node), or the route — and hence the backtracking
      // link — moved even though the distance survived, possibly onto a
      // parallel edge to the same parent.
      if (dist(o, subtree[i]) != old_dist[i] ||
          parent_slot(o, subtree[i]) != old_parent_slot[i]) {
        changes.push_back({o, subtree[i]});
      }
    }
  }
  return changes;
}

}  // namespace dsig
