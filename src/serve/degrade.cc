#include "serve/degrade.h"

#include <algorithm>

#include "core/epoch.h"
#include "obs/trace.h"

namespace dsig {
namespace serve {

Weight CategoryMidpoint(const CategoryPartition& partition, int category) {
  const DistanceRange range = partition.RangeOf(category);
  if (range.ub == kInfiniteWeight) {
    const double growth = partition.c() > 1 ? partition.c() : 2.0;
    return range.lb * growth;
  }
  return (range.lb + range.ub) / 2;
}

DegradedKnnResult DegradedKnnQuery(const SignatureIndex& index, NodeId n,
                                   size_t k) {
  DSIG_QUERY_TRACE("knn_degraded");
  const ReadSnapshot snapshot(index.epoch_gate());
  DegradedKnnResult result;
  if (k == 0) return result;
  static thread_local RowStage stage;
  index.ReadRowStaged(n, &stage);
  k = std::min(k, stage.size());

  const int m_categories = index.partition().num_categories();
  std::vector<std::vector<uint32_t>> buckets(
      static_cast<size_t>(m_categories));
  for (uint32_t o = 0; o < stage.size(); ++o) {
    buckets[stage.categories()[o]].push_back(o);
  }
  for (int cat = 0; cat < m_categories && result.objects.size() < k; ++cat) {
    const Weight midpoint = CategoryMidpoint(index.partition(), cat);
    for (const uint32_t o : buckets[cat]) {
      if (result.objects.size() >= k) break;
      result.objects.push_back(o);
      result.approx_distances.push_back(midpoint);
    }
  }
  return result;
}

RangeQueryResult DegradedRangeQuery(const SignatureIndex& index, NodeId n,
                                    Weight epsilon) {
  DSIG_QUERY_TRACE("range_degraded");
  const ReadSnapshot snapshot(index.epoch_gate());
  RangeQueryResult result;
  static thread_local RowStage stage;
  index.ReadRowStaged(n, &stage);
  const uint8_t* categories = stage.categories();
  const CategoryPartition& partition = index.partition();
  for (uint32_t o = 0; o < stage.size(); ++o) {
    const DistanceRange range = partition.RangeOf(categories[o]);
    if (range.ub != kInfiniteWeight && range.ub <= epsilon) {
      result.objects.push_back(o);
      continue;
    }
    if (range.lb > epsilon) continue;
    // Straddling: decide by midpoint instead of backtracking.
    ++result.refined;
    if (CategoryMidpoint(partition, categories[o]) <= epsilon) {
      result.objects.push_back(o);
    }
  }
  return result;
}

JoinResult DegradedEpsilonJoin(const SignatureIndex& left,
                               const SignatureIndex& right, NodeId n,
                               Weight epsilon) {
  DSIG_QUERY_TRACE("join_degraded");
  const ReadSnapshot left_snapshot(left.epoch_gate());
  const ReadSnapshot right_snapshot(right.epoch_gate());
  DSIG_CHECK_EQ(&left.graph(), &right.graph())
      << "join requires indexes over the same network";
  JoinResult result;
  static thread_local RowStage left_stage;
  static thread_local RowStage right_stage;
  left.ReadRowStaged(n, &left_stage);
  right.ReadRowStaged(n, &right_stage);
  const uint8_t* left_categories = left_stage.categories();
  const uint8_t* right_categories = right_stage.categories();
  const CategoryPartition& lp = left.partition();
  const CategoryPartition& rp = right.partition();
  for (uint32_t a = 0; a < left_stage.size(); ++a) {
    const DistanceRange ra = lp.RangeOf(left_categories[a]);
    const Weight mid_a = CategoryMidpoint(lp, left_categories[a]);
    for (uint32_t b = 0; b < right_stage.size(); ++b) {
      if (left.object_node(a) == right.object_node(b)) {
        result.pairs.push_back({a, b});
        continue;
      }
      const DistanceRange rb = rp.RangeOf(right_categories[b]);
      // Triangle bounds on category ranges, as in the exact join.
      Weight lower = 0;
      if (ra.ub != kInfiniteWeight) lower = std::max(lower, rb.lb - ra.ub);
      if (rb.ub != kInfiniteWeight) lower = std::max(lower, ra.lb - rb.ub);
      if (lower > epsilon) {
        ++result.pruned_by_categories;
        continue;
      }
      if (ra.ub != kInfiniteWeight && rb.ub != kInfiniteWeight &&
          ra.ub + rb.ub <= epsilon) {
        result.pairs.push_back({a, b});
        continue;
      }
      // Straddling: decide by midpoint sum instead of exact evaluation.
      if (mid_a + CategoryMidpoint(rp, right_categories[b]) <= epsilon) {
        result.pairs.push_back({a, b});
      }
    }
  }
  return result;
}

}  // namespace serve
}  // namespace dsig
