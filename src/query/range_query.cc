#include "query/range_query.h"

#include <algorithm>

#include "core/distance_ops.h"
#include "core/row_stage.h"
#include "obs/trace.h"
#include "util/deadline.h"
#include "util/simd/simd.h"

namespace dsig {

RangeQueryResult SignatureRangeQuery(const SignatureIndex& index, NodeId n,
                                     Weight epsilon, bool refine) {
  DSIG_QUERY_TRACE("range");
  const ReadSnapshot snapshot(index.epoch_gate());
  DSIG_CHECK_GE(epsilon, 0);
  RangeQueryResult result;
  // An already-expired deadline returns before the row read, so a hopeless
  // request never charges the buffer pool.
  if (DeadlineExpired()) {
    result.deadline_exceeded = true;
    return result;
  }
  static thread_local RowStage stage;
  index.ReadRowStaged(n, &stage);
  const CategoryPartition& partition = index.partition();
  const size_t num_objects = stage.size();
  const uint8_t* cats = stage.categories();

  // Category ranges ascend, so the per-object confirm/prune decision is
  // monotone in the category id: a prefix [0, accept) of categories is
  // wholly confirmed (ub <= epsilon), a suffix [reject, m) wholly pruned
  // (lb > epsilon), and only the straddling band in between needs
  // refinement. The per-object scan then collapses to two vector
  // extractions over the category lane.
  const int m = partition.num_categories();
  int accept = 0;
  while (accept < m) {
    const DistanceRange r = partition.RangeOf(accept);
    // Every distance in [lb, ub) is strictly below ub <= epsilon.
    if (r.ub == kInfiniteWeight || r.ub > epsilon) break;
    ++accept;
  }
  int reject = accept;
  while (reject < m && partition.RangeOf(reject).lb <= epsilon) ++reject;

  const simd::KernelTable& kernels = simd::Kernels();
  // Confirmed members in one pass, in ascending object order.
  result.objects.resize(num_objects);
  result.objects.resize(kernels.extract_in_range(
      cats, num_objects, 0, accept, result.objects.data()));
  const size_t confirmed = result.objects.size();

  // Straddling band: refine by guided backtracking until the range clears
  // the threshold (or collapses to the exact value). Refinement is where a
  // request burns its budget, so the deadline re-check runs per object
  // (throttled) and per backtracking step.
  uint32_t* const band = stage.index_scratch();
  const size_t band_count =
      kernels.extract_in_range(cats, num_objects, accept, reject, band);
  for (size_t j = 0; j < band_count && !result.deadline_exceeded; ++j) {
    const uint32_t o = band[j];
    if ((j & 15u) == 0 && DeadlineExpired()) {
      result.deadline_exceeded = true;
      break;
    }
    ++result.refined;
    if (!refine) {
      if (partition.Midpoint(cats[o]) <= epsilon) result.objects.push_back(o);
      continue;
    }
    const SignatureEntry initial = stage.entry(o);
    RetrievalCursor cursor(&index, n, o, &initial);
    while (true) {
      if (cursor.exact()) {
        if (cursor.exact_distance() <= epsilon) result.objects.push_back(o);
        break;
      }
      const DistanceRange r = cursor.range();
      if (r.ub != kInfiniteWeight && r.ub <= epsilon) {
        result.objects.push_back(o);
        break;
      }
      if (r.lb > epsilon) break;
      if (DeadlineExpired()) {
        // Abandon this (still ambiguous) object; everything already pushed
        // is confirmed, so the partial result stays sound.
        result.deadline_exceeded = true;
        break;
      }
      cursor.Step();
    }
  }
  // Refined confirms were appended after the vectorized accepts; both runs
  // ascend, so one merge restores global object order.
  std::inplace_merge(result.objects.begin(),
                     result.objects.begin() + confirmed, result.objects.end());
  return result;
}

}  // namespace dsig
