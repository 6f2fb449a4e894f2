// Degraded query evaluators: category-only answers for overload.
//
// The signature index's expensive phases are guided backtracking and exact
// sorting; its cheap phase is reading one row and looking at categories. The
// paper's own observation — categories alone confirm or prune most objects —
// is exactly what a server wants under overload: an answer whose cost is one
// row read, no page-chasing, no exact refinement.
//
// These evaluators mirror the exact queries (query/knn_query.h etc.), read
// the row through the same ReadRowStaged, but stop at the category level:
//   * kNN: objects of the nearest categories, boundary bucket truncated
//     arbitrarily, distances estimated as the category midpoint;
//   * range: category-confirmed objects plus straddling objects decided by
//     their midpoint (no backtracking);
//   * join: triangle bounds on category ranges only, straddling pairs
//     decided by midpoints (no exact evaluations).
//
// Answers are approximate in a bounded, explainable way (each object's true
// distance lies in its category range), and responses carrying them are
// tagged Degradation::kOverload so clients can tell. Decode-fault
// degradation is different machinery: the index itself falls back to bounded
// Dijkstra (SignatureIndex::FallbackRow) and stays exact; the server only
// tags it (Degradation::kDecodeFault).
#ifndef DSIG_SERVE_DEGRADE_H_
#define DSIG_SERVE_DEGRADE_H_

#include <cstdint>
#include <vector>

#include "core/signature_index.h"
#include "query/join_query.h"
#include "query/range_query.h"

namespace dsig {
namespace serve {

struct DegradedKnnResult {
  // k objects in non-decreasing category order (arbitrary order inside the
  // boundary category).
  std::vector<uint32_t> objects;
  // Midpoint-of-category distance estimates, aligned with `objects`.
  std::vector<Weight> approx_distances;
};

DegradedKnnResult DegradedKnnQuery(const SignatureIndex& index, NodeId n,
                                   size_t k);

// `refined` counts straddling objects decided by midpoint (the answer's
// uncertainty measure).
RangeQueryResult DegradedRangeQuery(const SignatureIndex& index, NodeId n,
                                    Weight epsilon);

// `exact_evaluations` stays 0 by construction; straddling pairs are decided
// by midpoint sums.
JoinResult DegradedEpsilonJoin(const SignatureIndex& left,
                               const SignatureIndex& right, NodeId n,
                               Weight epsilon);

// The midpoint estimate shared by the evaluators: middle of the category's
// range, with the open-ended last category capped at lb * growth.
Weight CategoryMidpoint(const CategoryPartition& partition, int category);

}  // namespace serve
}  // namespace dsig

#endif  // DSIG_SERVE_DEGRADE_H_
