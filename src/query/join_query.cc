#include "query/join_query.h"

#include <algorithm>
#include <cmath>

#include "core/distance_ops.h"
#include "core/row_stage.h"
#include "obs/trace.h"
#include "query/planner.h"
#include "util/deadline.h"
#include "util/simd/simd.h"

namespace dsig {
namespace {

// Triangle-inequality bounds on d(a, b) from distance ranges at a common
// node: d >= max(0, lb_a - ub_b, lb_b - ub_a), d <= ub_a + ub_b.
Weight PairLowerBound(const DistanceRange& a, const DistanceRange& b) {
  Weight lower = 0;
  if (a.ub != kInfiniteWeight) lower = std::max(lower, b.lb - a.ub);
  if (b.ub != kInfiniteWeight) lower = std::max(lower, a.lb - b.ub);
  return lower;
}

Weight PairUpperBound(const DistanceRange& a, const DistanceRange& b) {
  if (a.ub == kInfiniteWeight || b.ub == kInfiniteWeight) {
    return kInfiniteWeight;
  }
  return a.ub + b.ub;
}

}  // namespace

JoinResult SignatureEpsilonJoin(const SignatureIndex& left,
                                const SignatureIndex& right, NodeId n,
                                Weight epsilon, bool refine) {
  DSIG_QUERY_TRACE("join");
  const ReadSnapshot left_snapshot(left.epoch_gate());
  const ReadSnapshot right_snapshot(right.epoch_gate());
  DSIG_CHECK_EQ(&left.graph(), &right.graph())
      << "join requires indexes over the same network";
  JoinResult result;
  // An already-expired deadline returns before any row read, so a hopeless
  // request never charges the buffer pool.
  if (DeadlineExpired()) {
    result.deadline_exceeded = true;
    return result;
  }
  static thread_local RowStage left_stage;
  static thread_local RowStage right_stage;
  left.ReadRowStaged(n, &left_stage);
  right.ReadRowStaged(n, &right_stage);
  const size_t num_a = left_stage.size();
  const size_t num_b = right_stage.size();
  const uint8_t* left_cats = left_stage.categories();
  const uint8_t* right_cats = right_stage.categories();
  const CategoryPartition& lp = left.partition();
  const CategoryPartition& rp = right.partition();
  const simd::KernelTable& kernels = simd::Kernels();

  // Lazily-computed exact node distances, shared across pairs.
  std::vector<Weight> left_exact(num_a, -1);
  std::vector<Weight> right_exact(num_b, -1);
  const auto exact_left = [&](uint32_t a) {
    if (left_exact[a] < 0) {
      const SignatureEntry initial = left_stage.entry(a);
      left_exact[a] = RoutedObjectDistance(left, n, a, &initial);
    }
    return left_exact[a];
  };
  const auto exact_right = [&](uint32_t b) {
    if (right_exact[b] < 0) {
      const SignatureEntry initial = right_stage.entry(b);
      right_exact[b] = RoutedObjectDistance(right, n, b, &initial);
    }
    return right_exact[b];
  };

  // Right-hand category ranges, reused across every left object.
  const int m_right = rp.num_categories();
  std::vector<DistanceRange> rb_of(static_cast<size_t>(m_right));
  for (int c = 0; c < m_right; ++c) rb_of[c] = rp.RangeOf(c);

  std::vector<uint32_t> candidates;
  for (uint32_t a = 0; a < num_a; ++a) {
    // Phase boundary per left object: each row of the pair matrix can cost
    // several exact retrievals/evaluations. Pairs confirmed so far are
    // sound, so the partial result is usable.
    if (DeadlineExpired()) {
      result.deadline_exceeded = true;
      return result;
    }
    const DistanceRange ra = lp.RangeOf(left_cats[a]);
    // Category pruning (PairLowerBound > epsilon) is the union of a prefix
    // and a suffix of the right categories: of its two triangle terms, one
    // rises and one falls with the category id. The surviving keep-band
    // [lo, hi) is therefore contiguous and extracts in one vector pass.
    int lo = 0;
    while (lo < m_right && PairLowerBound(ra, rb_of[lo]) > epsilon) ++lo;
    int hi = m_right;
    while (hi > lo && PairLowerBound(ra, rb_of[hi - 1]) > epsilon) --hi;

    candidates.resize(num_b);
    candidates.resize(kernels.extract_in_range(right_cats, num_b, lo, hi,
                                               candidates.data()));
    result.pruned_by_categories += num_b - candidates.size();

    // A co-located pair joins at distance 0 regardless of its category;
    // splice it back in (at its object position) when the band dropped it.
    const ObjectId b_co = right.object_at(left.object_node(a));
    if (b_co != kInvalidObject &&
        !(right_cats[b_co] >= lo && right_cats[b_co] < hi)) {
      candidates.insert(
          std::lower_bound(candidates.begin(), candidates.end(), b_co), b_co);
      --result.pruned_by_categories;  // it was counted as pruned above
    }

    for (const uint32_t b : candidates) {
      if (b == b_co) {
        // Co-located objects join at distance 0.
        result.pairs.push_back({a, b});
        continue;
      }
      // Band membership already certifies PairLowerBound <= epsilon.
      const DistanceRange rb = rb_of[right_cats[b]];
      const Weight upper = PairUpperBound(ra, rb);
      if (upper != kInfiniteWeight && upper <= epsilon) {
        result.pairs.push_back({a, b});
        continue;
      }
      if (!refine) {
        if (lp.Midpoint(left_cats[a]) + rp.Midpoint(right_cats[b]) <= epsilon) {
          result.pairs.push_back({a, b});
        }
        continue;
      }
      // Refine the two node distances to exact values; often the tightened
      // triangle bounds decide the pair without touching d(a, b) itself.
      const Weight da = exact_left(a);
      const Weight db = exact_right(b);
      if (std::abs(da - db) > epsilon) {
        continue;
      }
      if (da + db <= epsilon) {
        result.pairs.push_back({a, b});
        continue;
      }
      ++result.exact_evaluations;
      // No category hint here — the signature row at a's node is unread, and
      // the label route keeps it that way.
      const Weight dab =
          RoutedObjectDistance(right, left.object_node(a), b, nullptr);
      if (dab <= epsilon) result.pairs.push_back({a, b});
    }
  }
  return result;
}

}  // namespace dsig
