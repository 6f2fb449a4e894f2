#include "core/update.h"

#include <algorithm>

#include "core/signature_builder.h"
#include "obs/metrics.h"

namespace dsig {
namespace {

// update.* registry counters (satellite of the WAL/snapshot work): the
// running totals dsig_tool stats and the benches read.
void RecordUpdateMetrics(const UpdateStats& stats) {
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const edges =
      registry.GetCounter("update.edges_applied");
  static obs::Counter* const rows =
      registry.GetCounter("update.rows_rewritten");
  static obs::Counter* const tree =
      registry.GetCounter("update.tree_entries_changed");
  static obs::Counter* const entries =
      registry.GetCounter("update.entries_changed");
  edges->Add(1);
  rows->Add(stats.rows_rewritten);
  tree->Add(stats.tree_entries_changed);
  entries->Add(stats.entries_changed);
}

}  // namespace

SignatureUpdater::SignatureUpdater(RoadNetwork* graph, SignatureIndex* index)
    : graph_(graph), index_(index) {
  DSIG_CHECK(graph_ != nullptr);
  DSIG_CHECK(index_ != nullptr);
  DSIG_CHECK_EQ(graph_, &index_->graph());
  DSIG_CHECK(index_->mutable_forest() != nullptr)
      << "build the index with keep_forest = true to enable updates";
}

UpdateStats SignatureUpdater::AddEdge(NodeId u, NodeId v, Weight weight,
                                      EdgeId* edge_out) {
  const UpdateGuard guard(index_->epoch_gate());
  // Any network change invalidates the hub-label tier (sticky latch): labels
  // are built offline and cannot be maintained incrementally, so the planner
  // demotes exact distances to the chase/Dijkstra paths until a rebuild.
  // Fallback rows are recomputed from the graph, so they go too — even when
  // no signature row changes below.
  index_->InvalidateHubLabels();
  index_->DropFallbackRows();
  const EdgeId edge = graph_->AddEdge(u, v, weight);
  if (edge_out != nullptr) *edge_out = edge;
  const UpdateStats stats =
      ApplyTreeChanges(index_->mutable_forest()->OnEdgeAddedOrDecreased(edge));
  RecordUpdateMetrics(stats);
  return stats;
}

UpdateStats SignatureUpdater::RemoveEdge(EdgeId edge) {
  const UpdateGuard guard(index_->epoch_gate());
  index_->InvalidateHubLabels();
  index_->DropFallbackRows();
  graph_->RemoveEdge(edge);
  const UpdateStats stats = ApplyTreeChanges(
      index_->mutable_forest()->OnEdgeIncreasedOrRemoved(edge));
  RecordUpdateMetrics(stats);
  return stats;
}

UpdateStats SignatureUpdater::SetEdgeWeight(EdgeId edge, Weight weight) {
  const UpdateGuard guard(index_->epoch_gate());
  index_->InvalidateHubLabels();
  index_->DropFallbackRows();
  const Weight old_weight = graph_->edge_weight(edge);
  graph_->SetEdgeWeight(edge, weight);
  UpdateStats stats;
  if (weight < old_weight) {
    stats = ApplyTreeChanges(
        index_->mutable_forest()->OnEdgeAddedOrDecreased(edge));
  } else if (weight > old_weight) {
    stats = ApplyTreeChanges(
        index_->mutable_forest()->OnEdgeIncreasedOrRemoved(edge));
  }
  RecordUpdateMetrics(stats);
  return stats;
}

UpdateStats SignatureUpdater::Apply(const UpdateRecord& record) {
  switch (record.op) {
    case UpdateRecord::kAddEdge:
      return AddEdge(record.a, record.b, record.weight);
    case UpdateRecord::kRemoveEdge:
      return RemoveEdge(record.a);
    case UpdateRecord::kSetEdgeWeight:
      return SetEdgeWeight(record.a, record.weight);
    default:
      DSIG_CHECK(false) << "unvalidated update record op "
                        << static_cast<int>(record.op);
  }
  return {};
}

UpdateStats SignatureUpdater::ApplyTreeChanges(
    const std::vector<TreeChange>& changes) {
  UpdateStats stats;
  stats.tree_entries_changed = changes.size();
  if (changes.empty()) return stats;

  const SpanningForest& forest = *index_->forest();
  const CategoryPartition& partition = index_->partition();
  ObjectDistanceTable* table = index_->mutable_object_table();
  const int last_category = partition.num_categories() - 1;

  // Refresh object-object distances first: row recompression consults them.
  // Pairs whose *category* moved poison the compression of rows that were
  // otherwise untouched (their flagged entries resolve through the table),
  // so track the affected objects and rewrite those rows too below.
  std::vector<bool> dirty_object(index_->num_objects(), false);
  bool any_dirty = false;
  for (const TreeChange& change : changes) {
    const ObjectId other = index_->object_at(change.node);
    if (other == kInvalidObject || other == change.object_index) continue;
    const Weight d = forest.dist(change.object_index, change.node);
    const int old_category =
        table->IsFar(change.object_index, other)
            ? last_category
            : partition.CategoryOf(table->Get(change.object_index, other));
    int new_category;
    if (d == kInfiniteWeight || partition.CategoryOf(d) == last_category) {
      if (!table->IsFar(change.object_index, other)) {
        table->MarkFar(change.object_index, other);
      }
      new_category = last_category;
    } else {
      table->Set(change.object_index, other, d);
      new_category = partition.CategoryOf(d);
    }
    if (new_category != old_category) {
      dirty_object[change.object_index] = true;
      dirty_object[other] = true;
      any_dirty = true;
    }
  }

  // Rewrite each affected node's row once (a node may appear under several
  // objects). Rebuilding the whole row keeps compression decisions
  // consistent — a changed component can alter its neighbours' reps.
  std::vector<NodeId> nodes;
  nodes.reserve(changes.size());
  for (const TreeChange& change : changes) nodes.push_back(change.node);
  if (any_dirty && index_->codec().has_flags()) {
    // Category changes in the object table invalidate the stored compression
    // of rows holding a flagged entry for a dirty object: their decoder-side
    // resolution would now disagree with the encoder's. Sweep the rows' flag
    // lanes (an in-memory scan; no page I/O) and schedule the affected ones.
    RowStage row;
    for (NodeId n = 0; n < graph_->num_nodes(); ++n) {
      if (!index_->codec().TryDecodeRowStage(index_->encoded_row(n),
                                             index_->num_objects(), &row)) {
        // Undecodable (in-memory rot): rebuild it from the forest rather
        // than aborting the update.
        nodes.push_back(n);
        continue;
      }
      for (uint32_t o = 0; o < row.size(); ++o) {
        if (row.flags()[o] != 0 && dirty_object[o]) {
          nodes.push_back(n);
          break;
        }
      }
    }
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());

  // ReplaceRow drops each rewritten node's cached resolution. No reader can
  // cache a row computed against the pre-update object table meanwhile: the
  // caller's UpdateGuard keeps every reader out until the loop is done.
  for (const NodeId n : nodes) {
    SignatureRow row =
        BuildRowFromForest(*graph_, forest, partition, n);
    if (index_->codec().has_flags()) index_->compressor().Compress(&row);
    stats.entries_changed += index_->ReplaceRow(n, row);
    ++stats.rows_rewritten;
  }
  return stats;
}

}  // namespace dsig
