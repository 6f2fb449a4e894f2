#include "graph/spanning_tree.h"

#include <algorithm>
#include <deque>
#include <queue>
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
  dist_.assign(slots, kInfiniteWeight);
  parent_edge_.assign(slots, kInvalidEdge);

  // The per-object Dijkstras are independent (§5.2); run them on the shared
  // pool (steal-balanced: a central object's Dijkstra settles far more nodes
  // than a peripheral one's). Each writes a disjoint row-major slice.
  if (pool == nullptr) pool = &ThreadPool::Global();
  pool->ParallelFor(objects_.size(), [&](size_t o) {
    const ShortestPathTree tree = RunDijkstra(*graph_, objects_[o]);
    for (NodeId n = 0; n < num_nodes_; ++n) {
      const size_t slot = Slot(static_cast<uint32_t>(o), n);
      dist_[slot] = tree.dist[n];
      parent_edge_[slot] = tree.parent_edge[n];
    }
  });
  built_ = true;
}

std::vector<uint32_t> SpanningForest::ObjectsUsingEdge(EdgeId edge) const {
  std::vector<uint32_t> users;
  if (edge >= graph_->num_edge_slots()) return users;
  const auto [a, b] = graph_->edge_endpoints(edge);
  for (uint32_t o = 0; o < objects_.size(); ++o) {
    if (parent_edge_[Slot(o, a)] == edge || parent_edge_[Slot(o, b)] == edge) {
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
      if (parent_edge_[Slot(object_index, entry.to)] == entry.edge_id) {
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
      const size_t from_slot = Slot(o, from);
      const size_t to_slot = Slot(o, to);
      if (dist_[from_slot] == kInfiniteWeight) return;
      const Weight nd = dist_[from_slot] + weight;
      if (nd < dist_[to_slot]) {
        dist_[to_slot] = nd;
        parent_edge_[to_slot] = via;
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
    const NodeId child = parent_edge_[Slot(o, ea)] == edge ? ea : eb;

    // Invalidate the whole subtree hanging below the weakened edge, then
    // repair it with a Dijkstra seeded from the frontier of intact nodes.
    const std::vector<NodeId> subtree = CollectSubtree(o, child);
    std::vector<bool> in_subtree(num_nodes_, false);
    std::vector<Weight> old_dist(subtree.size());
    std::vector<EdgeId> old_parent_edge(subtree.size());
    for (size_t i = 0; i < subtree.size(); ++i) {
      in_subtree[subtree[i]] = true;
      old_dist[i] = dist_[Slot(o, subtree[i])];
      old_parent_edge[i] = parent_edge_[Slot(o, subtree[i])];
      dist_[Slot(o, subtree[i])] = kInfiniteWeight;
    }

    using Entry = std::pair<Weight, NodeId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    for (const NodeId s : subtree) {
      for (const AdjacencyEntry& entry : graph_->adjacency(s)) {
        if (entry.removed || in_subtree[entry.to]) continue;
        const Weight base = dist_[Slot(o, entry.to)];
        if (base == kInfiniteWeight) continue;
        const Weight nd = base + entry.weight;
        if (nd < dist_[Slot(o, s)]) {
          dist_[Slot(o, s)] = nd;
          parent_edge_[Slot(o, s)] = entry.edge_id;
          heap.push({nd, s});
        }
      }
    }
    std::vector<bool> settled(num_nodes_, false);
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (settled[u] || d > dist_[Slot(o, u)]) continue;
      settled[u] = true;
      for (const AdjacencyEntry& entry : graph_->adjacency(u)) {
        if (entry.removed || !in_subtree[entry.to]) continue;
        const Weight nd = d + entry.weight;
        if (nd < dist_[Slot(o, entry.to)]) {
          dist_[Slot(o, entry.to)] = nd;
          parent_edge_[Slot(o, entry.to)] = entry.edge_id;
          heap.push({nd, entry.to});
        }
      }
    }
    for (size_t i = 0; i < subtree.size(); ++i) {
      const NodeId s = subtree[i];
      if (dist_[Slot(o, s)] == kInfiniteWeight) {
        // Disconnected by the removal.
        parent_edge_[Slot(o, s)] = kInvalidEdge;
        changes.push_back({o, s});
      } else if (dist_[Slot(o, s)] != old_dist[i] ||
                 parent_edge_[Slot(o, s)] != old_parent_edge[i]) {
        // Distance changed, or the route (and hence the backtracking link)
        // moved even though the distance survived — possibly onto a
        // parallel edge to the same parent.
        changes.push_back({o, s});
      }
    }
  }
  return changes;
}

}  // namespace dsig
