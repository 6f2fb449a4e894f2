#include "core/category_partition.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace dsig {

bool DistanceRange::PartiallyIntersects(const DistanceRange& other) const {
  // Disjoint ranges do not partially intersect.
  if (ub <= other.lb || other.ub <= lb) return false;
  // Full containment of *this* within `other` is not partial either: the
  // retrieval loop may stop because every refinement stays inside ∆.
  if (lb >= other.lb && ub <= other.ub) return false;
  return true;
}

CategoryPartition::CategoryPartition(std::vector<Weight> boundaries, double t,
                                     double c)
    : boundaries_(std::move(boundaries)), t_(t), c_(c) {}

CategoryPartition CategoryPartition::Exponential(double t, double c,
                                                 Weight max_distance) {
  DSIG_CHECK_GT(t, 0);
  DSIG_CHECK_GT(c, 1);
  DSIG_CHECK_GE(max_distance, t);
  std::vector<Weight> boundaries;
  double bound = t;
  while (bound < max_distance) {
    boundaries.push_back(bound);
    bound *= c;
  }
  // The open-ended tail [last boundary, ∞) absorbs the farthest distances,
  // as in the paper's "beyond 900 meters" example category.
  if (boundaries.empty()) boundaries.push_back(t);
  return CategoryPartition(std::move(boundaries), t, c);
}

CategoryPartition CategoryPartition::Optimal(Weight sp, Weight max_distance) {
  DSIG_CHECK_GT(sp, 0);
  const double c = std::exp(1.0);
  const double t = std::max(1.0, std::sqrt(sp / c));
  return Exponential(t, c, std::max<Weight>(max_distance, t));
}

CategoryPartition CategoryPartition::FromBoundaries(
    std::vector<Weight> boundaries) {
  DSIG_CHECK(!boundaries.empty());
  for (size_t i = 0; i < boundaries.size(); ++i) {
    DSIG_CHECK_GT(boundaries[i], 0);
    if (i > 0) DSIG_CHECK_GT(boundaries[i], boundaries[i - 1]);
    DSIG_CHECK_LT(boundaries[i], kInfiniteWeight);
  }
  return CategoryPartition(std::move(boundaries), 0, 0);
}

CategoryPartition CategoryPartition::Restore(std::vector<Weight> boundaries,
                                             double t, double c) {
  DSIG_CHECK(!boundaries.empty());
  return CategoryPartition(std::move(boundaries), t, c);
}

int CategoryPartition::CategoryOf(Weight d) const {
  DSIG_CHECK_GE(d, 0);
  // First boundary strictly greater than d gives the category.
  const auto it = std::upper_bound(boundaries_.begin(), boundaries_.end(), d);
  return static_cast<int>(it - boundaries_.begin());
}

Weight CategoryPartition::LowerBound(int category) const {
  DSIG_CHECK_GE(category, 0);
  DSIG_CHECK_LT(category, num_categories());
  return category == 0 ? 0 : boundaries_[static_cast<size_t>(category) - 1];
}

Weight CategoryPartition::UpperBound(int category) const {
  DSIG_CHECK_GE(category, 0);
  DSIG_CHECK_LT(category, num_categories());
  return category + 1 == num_categories()
             ? kInfiniteWeight
             : boundaries_[static_cast<size_t>(category)];
}

Weight CategoryPartition::Midpoint(int category) const {
  const DistanceRange range = RangeOf(category);
  if (range.ub == kInfiniteWeight) {
    const double growth = c_ > 1 ? c_ : 2.0;
    return range.lb * growth;
  }
  return (range.lb + range.ub) / 2;
}

int CategoryPartition::fixed_code_bits() const {
  int bits = 1;
  while ((1 << bits) < num_categories()) ++bits;
  return bits;
}

}  // namespace dsig
