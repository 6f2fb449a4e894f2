// Range query processing on distance signatures (paper §4.1, Algorithm 5).
//
// Returns every object within network distance epsilon of the query node.
// Signature categories confirm or prune most objects outright; only objects
// whose category range straddles epsilon pay for guided backtracking, and
// that backtracking stops the moment the range clears the threshold.
//
// With `refine = false` the query stops after the category phase: a
// straddling object is decided by its category midpoint
// (CategoryPartition::Midpoint) instead of by backtracking. The server
// answers this way under overload.
#ifndef DSIG_QUERY_RANGE_QUERY_H_
#define DSIG_QUERY_RANGE_QUERY_H_

#include <cstdint>
#include <vector>

#include "core/signature_index.h"

namespace dsig {

struct RangeQueryResult {
  // Object indexes with d(n, o) <= epsilon, in object order.
  std::vector<uint32_t> objects;
  // Objects that needed refinement (the category range straddled epsilon) —
  // a quality metric for the partition. Without refinement, the objects
  // decided by midpoint: the answer's uncertainty.
  size_t refined = 0;
  // True when the ambient request deadline (util/deadline.h) expired before
  // every object was classified; `objects` then holds the objects confirmed
  // so far (all category-confirmed members plus refined confirms), a
  // well-formed partial answer — a subset of the exact result.
  bool deadline_exceeded = false;
};

RangeQueryResult SignatureRangeQuery(const SignatureIndex& index, NodeId n,
                                     Weight epsilon, bool refine = true);

}  // namespace dsig

#endif  // DSIG_QUERY_RANGE_QUERY_H_
