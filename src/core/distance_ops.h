// Basic operations on distance signatures (paper §3.2): retrieval,
// comparison, and sorting.
//
// Exact values are reached by *guided backtracking*: each signature
// component's link names the next hop on the shortest path toward the
// object, so following links accumulates the exact distance edge by edge,
// and the category read at every intermediate node keeps an ever-tighter
// range [acc + lb, acc + ub). Approximate variants stop as soon as the range
// answers the caller's question. Comparison and sorting take the node's
// resolved row as the RowStage SignatureIndex::ReadRowStaged filled.
#ifndef DSIG_CORE_DISTANCE_OPS_H_
#define DSIG_CORE_DISTANCE_OPS_H_

#include <cstdint>
#include <vector>

#include "core/signature_index.h"

namespace dsig {

enum class CompareResult { kLess, kEqual, kGreater };

// Resumable backtracking along the shortest path from a node toward an
// object. Every Step() charges one adjacency page and one signature page.
class RetrievalCursor {
 public:
  // `initial` is the already-read component s(n)[object] (so callers that
  // read the whole row are not charged twice); pass null to have the cursor
  // read it (one page charge).
  RetrievalCursor(const SignatureIndex* index, NodeId n, uint32_t object,
                  const SignatureEntry* initial);

  // Current knowledge of d(n, object).
  DistanceRange range() const { return range_; }
  bool exact() const { return exact_; }
  Weight exact_distance() const {
    DSIG_CHECK(exact_);
    return range_.lb;
  }

  // One backtracking step; no-op (returns false) once exact.
  bool Step();

  // Steps until the range no longer partially intersects `delta` (§3.2.1's
  // approximate retrieval) or the value is exact.
  DistanceRange RefineAgainst(const DistanceRange& delta);

  // Steps all the way to the object.
  Weight RetrieveExact();

 private:
  void LoadEntry(const SignatureEntry* initial);

  const SignatureIndex* index_;
  uint32_t object_;
  NodeId pos_;
  Weight accumulated_ = 0;
  uint8_t link_ = 0;
  DistanceRange range_;
  bool exact_ = false;
  size_t steps_ = 0;
};

// d(n, object), exact, via guided backtracking.
Weight ExactDistance(const SignatureIndex& index, NodeId n, uint32_t object);

// Approximate retrieval: a range containing d(n, object) that does not
// partially intersect `delta`.
DistanceRange ApproximateDistance(const SignatureIndex& index, NodeId n,
                                  uint32_t object, const DistanceRange& delta);

// Exact comparison of d(n, a) vs d(n, b) (Algorithm 2): alternately refines
// the two distances, in batches, until unambiguous. `stage` is n's resolved
// row (SignatureIndex::ReadRowStaged).
CompareResult ExactCompare(const SignatureIndex& index, NodeId n, uint32_t a,
                           uint32_t b, const RowStage& stage);

// Approximate comparison (Algorithm 3): uses only s(n) plus the in-memory
// object table. Observers — objects in strictly closer categories — vote on
// which side of the perpendicular bisector of (a, b) the node lies in a 2-D
// embedding; majority wins, any ambiguity yields kEqual. The observer
// pre-filter (category strictly below a's) runs as one vectorized
// extraction over the stage's category lane, so the verdict is identical at
// every SIMD dispatch level. Never charges pages beyond the row the caller
// already read.
CompareResult ApproximateCompare(const SignatureIndex& index, NodeId n,
                                 uint32_t a, uint32_t b, const RowStage& stage);

// Distance sorting (Algorithm 4): an approximate-comparison insertion sort
// followed by an exact-comparison bubble refinement. On return `objects` is
// exactly ordered by d(n, ·) — unless the ambient request deadline
// (util/deadline.h) expired mid-sort, in which case the vector is left an
// approximately-ordered permutation of its input and DeadlineExpired() is
// true; callers tag their result partial.
void SortByDistance(const SignatureIndex& index, NodeId n,
                    const RowStage& stage, std::vector<uint32_t>* objects);

}  // namespace dsig

#endif  // DSIG_CORE_DISTANCE_OPS_H_
