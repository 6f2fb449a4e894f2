// Distance-spectrum partitioning into categories (paper §3.1, §5.1).
//
// The distance spectrum [0, ∞) is cut into M uneven categories. The paper
// partitions exponentially — boundaries at T, cT, c²T, … — so nearby objects
// get fine-grained categories and remote objects coarse ones, and derives the
// optimum c = e, T = sqrt(SP/e) for a uniform grid with query spreadings
// uniform on [0, SP].
//
// Category i's range is [lb_i, ub_i):
//   category 0      = [0, T)
//   category i>0    = [c^{i-1}·T, c^i·T)
//   category M-1    = [c^{M-2}·T, ∞)   (open-ended tail)
#ifndef DSIG_CORE_CATEGORY_PARTITION_H_
#define DSIG_CORE_CATEGORY_PARTITION_H_

#include <cstdint>
#include <vector>

#include "graph/road_network.h"

namespace dsig {

// A half-open distance range [lb, ub); ub may be kInfiniteWeight.
struct DistanceRange {
  Weight lb = 0;
  Weight ub = kInfiniteWeight;

  bool Contains(Weight d) const { return d >= lb && d < ub; }

  // True when this range and [other_lb, other_ub) overlap but neither
  // contains the other's span entirely on one side — the "partial
  // intersection" test used by approximate retrieval (§3.2.1).
  bool PartiallyIntersects(const DistanceRange& other) const;
};

inline bool operator==(const DistanceRange& a, const DistanceRange& b) {
  return a.lb == b.lb && a.ub == b.ub;
}

class CategoryPartition {
 public:
  // Exponential partition with first boundary `t` and growth factor `c`;
  // finite boundaries are laid at t, ct, c²t, … below `max_distance`, and the
  // open tail [c^{M-2}·t, ∞) absorbs the farthest distances.
  // Requires t > 0, c > 1, max_distance >= t.
  static CategoryPartition Exponential(double t, double c,
                                       Weight max_distance);

  // Paper §5.1 optimum for spreading bound `sp`: c = e, T = sqrt(sp/e).
  static CategoryPartition Optimal(Weight sp, Weight max_distance);

  // Arbitrary ascending finite boundaries b_1 < … < b_{M-1}; category i =
  // [b_i, b_{i+1}) with b_0 = 0 and b_M = ∞. Mostly for tests.
  static CategoryPartition FromBoundaries(std::vector<Weight> boundaries);

  // Reassembles a partition from serialized parts (boundaries plus the
  // generating parameters, 0 when not built exponentially).
  static CategoryPartition Restore(std::vector<Weight> boundaries, double t,
                                   double c);

  // The ascending finite boundaries (boundary i = upper bound of category i).
  const std::vector<Weight>& boundaries() const { return boundaries_; }

  // Number of categories M.
  int num_categories() const {
    return static_cast<int>(boundaries_.size()) + 1;
  }

  // Category of distance `d` (d >= 0).
  int CategoryOf(Weight d) const;

  Weight LowerBound(int category) const;
  Weight UpperBound(int category) const;  // kInfiniteWeight for the last
  DistanceRange RangeOf(int category) const {
    return {LowerBound(category), UpperBound(category)};
  }

  // One distance standing in for every object of `category`: the middle of
  // its range, with the open-ended last category capped at lb * c (lb * 2
  // when not built exponentially). Category-only query answers
  // (`refine = false`) report and decide by it.
  Weight Midpoint(int category) const;

  // Bits of a fixed-length category id: ceil(log2 M), at least 1.
  int fixed_code_bits() const;

  // The generating parameters when built exponentially (0 otherwise).
  double t() const { return t_; }
  double c() const { return c_; }

 private:
  explicit CategoryPartition(std::vector<Weight> boundaries, double t,
                             double c);

  std::vector<Weight> boundaries_;  // ascending; boundary i = ub of cat i
  double t_ = 0;
  double c_ = 0;
};

}  // namespace dsig

#endif  // DSIG_CORE_CATEGORY_PARTITION_H_
