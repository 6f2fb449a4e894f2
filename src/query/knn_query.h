// k-nearest-neighbour query processing (paper §4.2, Algorithm 6).
//
// The paper differentiates kNN queries by how much distance information the
// caller needs; cheaper types skip work:
//  * type 3 — just the k nearest objects, unordered. Categories confirm
//    whole buckets; only the boundary bucket is (exactly) sorted.
//  * type 2 — objects in distance order, distances themselves not returned:
//    every contributing bucket is sorted.
//  * type 1 — objects with their exact distances: each result's distance is
//    retrieved by guided backtracking.
//
// With `refine = false` the query stops after the category phase, for every
// type: the contributing buckets in object order, the boundary bucket cut
// without ranking, and each object's category midpoint
// (CategoryPartition::Midpoint) as its distance. The server answers this way
// under overload; each true distance lies in its object's category range.
#ifndef DSIG_QUERY_KNN_QUERY_H_
#define DSIG_QUERY_KNN_QUERY_H_

#include <cstdint>
#include <vector>

#include "core/signature_index.h"

namespace dsig {

enum class KnnResultType {
  kType1,  // exact distances returned
  kType2,  // distance-ordered, no distances
  kType3,  // membership only
};

struct KnnResult {
  // The k nearest object indexes. Ordered by distance for types 1 and 2;
  // unspecified order for type 3.
  std::vector<uint32_t> objects;
  // Exact distances aligned with `objects`; filled for type 1 only, or with
  // category midpoints for every type when `refine` is false.
  std::vector<Weight> distances;
  // True when the ambient request deadline (util/deadline.h) expired before
  // the query finished. The result is a well-formed partial answer: objects
  // confirmed so far (possibly fewer than k, possibly approximately ordered),
  // with `distances` still aligned to `objects` for type 1.
  bool deadline_exceeded = false;
};

KnnResult SignatureKnnQuery(const SignatureIndex& index, NodeId n, size_t k,
                            KnnResultType type, bool refine = true);

}  // namespace dsig

#endif  // DSIG_QUERY_KNN_QUERY_H_
