// serve::CategoryMidpoint: CategoryPartition::Midpoint under its serving
// name.
//
// Overload answers come from the query code itself, called with
// `refine = false` (query/knn_query.h, range_query.h, join_query.h), and the
// midpoint those answers report is CategoryPartition::Midpoint. This header
// remains only because servebench/bench_serve.cc includes it to size its ε,
// and files under servebench/ change only together with the benchmark; the
// next change to the benchmark should point that file at
// CategoryPartition::Midpoint and delete this header.
#ifndef DSIG_SERVE_DEGRADE_H_
#define DSIG_SERVE_DEGRADE_H_

#include "core/signature_index.h"

namespace dsig {
namespace serve {

inline Weight CategoryMidpoint(const CategoryPartition& partition,
                               int category) {
  return partition.Midpoint(category);
}

}  // namespace serve
}  // namespace dsig

#endif  // DSIG_SERVE_DEGRADE_H_
