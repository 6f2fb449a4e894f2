// Incremental signature maintenance under network updates (paper §5.4).
//
// The updater owns the mutation protocol: it applies the edge change to the
// RoadNetwork, lets the retained spanning forest repair itself (decrease ->
// label-correcting relaxation; increase/removal -> subtree rebuild in each
// object tree whose parent edges use the changed edge), refreshes affected
// object-object table entries, and finally rewrites in place only the
// signature rows whose category or backtracking link actually changed — the
// locality the paper's update argument rests on.
#ifndef DSIG_CORE_UPDATE_H_
#define DSIG_CORE_UPDATE_H_

#include <cstdint>

#include "core/signature_index.h"
#include "core/update_log.h"

namespace dsig {

struct UpdateStats {
  size_t tree_entries_changed = 0;   // (object, node) pairs re-labelled
  size_t rows_rewritten = 0;         // signature rows re-encoded
  size_t entries_changed = 0;        // components whose category/link moved
};

// Concurrency: each mutation runs inside an exclusive UpdateGuard on the
// index's EpochGate, so it is safe to call while query threads are serving:
// they hold ReadSnapshots, which wait while a mutation runs, so a query sees
// the index before or after a mutation, never during one. The updater itself
// is single-writer: do not call two mutations concurrently. Durability is
// layered on top by io/durable_index.h, which logs each mutation to a WAL
// before invoking it here.
class SignatureUpdater {
 public:
  // `graph` must be the same network the index was built on, and the index
  // must have been built with keep_forest = true.
  SignatureUpdater(RoadNetwork* graph, SignatureIndex* index);

  // Inserts a new road segment; returns its id via `edge_out` if non-null.
  UpdateStats AddEdge(NodeId u, NodeId v, Weight weight,
                      EdgeId* edge_out = nullptr);

  UpdateStats RemoveEdge(EdgeId edge);

  UpdateStats SetEdgeWeight(EdgeId edge, Weight weight);

  // Applies one logged mutation through the paths above — the recovery
  // replay and the chaos driver speak UpdateRecord. The record must already
  // be validated (UpdateRecord::Validate / ApplyTo's range checks).
  UpdateStats Apply(const UpdateRecord& record);

 private:
  UpdateStats ApplyTreeChanges(const std::vector<TreeChange>& changes);

  RoadNetwork* graph_;
  SignatureIndex* index_;
};

}  // namespace dsig

#endif  // DSIG_CORE_UPDATE_H_
