#include "query/closest_pair.h"

#include "core/distance_ops.h"
#include "core/row_stage.h"
#include "obs/op_counters.h"
#include "obs/trace.h"
#include "query/planner.h"
#include "util/simd/simd.h"

namespace dsig {

ClosestPairResult SignatureClosestPair(const SignatureIndex& left,
                                       const SignatureIndex& right) {
  DSIG_QUERY_TRACE("closest_pair");
  const ReadSnapshot left_snapshot(left.epoch_gate());
  const ReadSnapshot right_snapshot(right.epoch_gate());
  DSIG_CHECK_EQ(&left.graph(), &right.graph())
      << "closest pair requires indexes over the same network";
  DSIG_CHECK_GT(left.num_objects(), 0u);
  DSIG_CHECK_GT(right.num_objects(), 0u);
  ClosestPairResult best;

  const CategoryPartition& partition = right.partition();
  const int m = partition.num_categories();
  const bool use_labels = LabelsUsable(right);
  const simd::KernelTable& kernels = simd::Kernels();
  static thread_local RowStage stage;
  for (uint32_t a = 0; a < left.num_objects(); ++a) {
    const NodeId node_a = left.object_node(a);
    // The right index's signature at a's node is the category view of
    // d(a, b) for every b.
    right.ReadRowStaged(node_a, &stage);
    const size_t num_b = stage.size();
    const uint8_t* cats = stage.categories();

    if (best.distance <= 0) {
      // Only a co-located pair can still match a zero incumbent, and there
      // is at most one: the right object on a's node.
      const ObjectId co = right.object_at(node_a);
      if (co != kInvalidObject) return {a, co, 0, best.refined};
      continue;
    }

    // Contender band: category ranges ascend, so the categories whose lower
    // bound can still beat the incumbent form the prefix below `limit`. A
    // co-located b (distance 0, category 0) always lands in the band while
    // the incumbent distance is positive.
    int limit = 0;
    while (limit < m && partition.RangeOf(limit).lb < best.distance) ++limit;
    // Whole-row skip when even the row's closest category cannot win.
    if (kernels.min_u8(cats, num_b) >= limit) continue;

    uint32_t* const band = stage.index_scratch();
    const size_t band_count =
        kernels.extract_in_range(cats, num_b, 0, limit, band);
    for (size_t j = 0; j < band_count; ++j) {
      const uint32_t b = band[j];
      if (right.object_node(b) == node_a) {
        // Co-located: nothing can beat 0.
        return {a, b, 0, best.refined};
      }
      const DistanceRange range = partition.RangeOf(cats[b]);
      // Re-check against the live incumbent: `limit` was computed at row
      // start and the incumbent may have tightened since.
      if (range.lb >= best.distance) continue;  // cannot win
      ++best.refined;
      if (use_labels) {
        // Label route: the exact value in one merge. The incumbent check is
        // the same (exact d vs best), so the winner sequence — and thus the
        // final pair — matches the chase route bit for bit.
        ++GlobalOpCounters().label_distances;
        const Weight d =
            right.hub_labels()->Distance(node_a, right.object_node(b));
        if (d < best.distance) {
          best.left = a;
          best.right = b;
          best.distance = d;
        }
        continue;
      }
      // Chase route: a label-eligible distance when a tier is attached.
      if (right.hub_labels() != nullptr) {
        ++GlobalOpCounters().label_demotions;
      }
      const SignatureEntry initial = stage.entry(b);
      RetrievalCursor cursor(&right, node_a, b, &initial);
      // Refine only until the pair provably loses to the incumbent.
      while (!cursor.exact() && cursor.range().lb < best.distance) {
        cursor.Step();
      }
      if (cursor.exact() && cursor.exact_distance() < best.distance) {
        best.left = a;
        best.right = b;
        best.distance = cursor.exact_distance();
      }
    }
  }
  return best;
}

}  // namespace dsig
