// Routing of exact-distance work (the hybrid-tier planner).
//
// Three machines can produce an exact network distance:
//   * the hub-label tier (core/hub_labels.h): one sorted-array min-plus
//     merge, microseconds, no pages — but immutable, so any applied update
//     trips its sticky stale latch;
//   * guided backtracking over signatures (core/distance_ops.h): one row
//     decode + one adjacency page per hop, incrementally maintained, the
//     previous default;
//   * bounded Dijkstra (graph/dijkstra.h): no index at all, the last-resort
//     fallback it has always been.
//
// One rule routes every exact distance: the labels answer whenever
// LabelsUsable holds (attached, decoded, fresh, not pinned off), and the
// signature paths answer otherwise. Signatures keep doing what they are
// uniquely good at (categorical pruning, observer votes); the label tier
// takes over the final exact values and long sorts.
//
// Identity contract: every generator produces integer edge weights, so the
// label sum d(u,h) + d(h,v) equals the chase's edge-by-edge accumulation
// bit for bit, and the label-routed sort reproduces the signature sort's
// exact permutation (the refinement pass of Algorithm 4 is a stable sort by
// exact distance, which is precisely what the label route runs). Query
// results are therefore identical on every route — enforced by
// tests/planner_test.cc at every SIMD dispatch level.
//
// Overrides: DSIG_FORCE_NO_LABELS=1 (checked once, mirroring
// DSIG_FORCE_SCALAR) pins the signature/Dijkstra paths; NoLabelsOverride is
// the RAII hook for tests and harnesses.
#ifndef DSIG_QUERY_PLANNER_H_
#define DSIG_QUERY_PLANNER_H_

#include <cstdint>
#include <vector>

#include "core/distance_ops.h"
#include "core/signature_index.h"

namespace dsig {

// True when the hub-label tier may serve `index` right now: labels attached,
// blob decoded, stale latch clear, and no force-off pin.
bool LabelsUsable(const SignatureIndex& index);

// d(n, object), exact: one label merge when LabelsUsable, else the chase.
// Identical value on every route; charges label_distances or backtrack
// pages according to the route taken. `initial` as in RetrievalCursor: the
// resolved entry s(n)[object] when the caller already read the row, else
// null; only the chase reads it.
Weight RoutedObjectDistance(const SignatureIndex& index, NodeId n,
                            uint32_t object, const SignatureEntry* initial);

// SortByDistance twin: same approximate insertion sort, then exact ranking
// by label distances instead of cursor refinement when the labels are
// usable (falls back to core/distance_ops' sort otherwise). Same deadline
// semantics: on expiry `objects` is left an approximately-ordered
// permutation and the caller tags the result partial. The final order is
// bit-identical to SortByDistance on every route.
void RoutedSortByDistance(const SignatureIndex& index, NodeId n,
                          const RowStage& stage,
                          std::vector<uint32_t>* objects);

// RAII force-off pin: while alive, LabelsUsable is false on every index
// (scoped twin of DSIG_FORCE_NO_LABELS; nests).
class NoLabelsOverride {
 public:
  NoLabelsOverride();
  ~NoLabelsOverride();
  NoLabelsOverride(const NoLabelsOverride&) = delete;
  NoLabelsOverride& operator=(const NoLabelsOverride&) = delete;
};

}  // namespace dsig

#endif  // DSIG_QUERY_PLANNER_H_
