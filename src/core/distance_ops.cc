#include "core/distance_ops.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/row_stage.h"
#include "obs/op_counters.h"
#include "obs/trace.h"
#include "util/deadline.h"
#include "util/simd/simd.h"

namespace dsig {
namespace {

// True when the relation between the two ranges is decided: every value of A
// is strictly below every value of B, or vice versa, or both are exact.
bool Decided(const RetrievalCursor& a, const RetrievalCursor& b,
             CompareResult* result) {
  const DistanceRange ra = a.range();
  const DistanceRange rb = b.range();
  if (a.exact() && b.exact()) {
    if (ra.lb < rb.lb) {
      *result = CompareResult::kLess;
    } else if (ra.lb > rb.lb) {
      *result = CompareResult::kGreater;
    } else {
      *result = CompareResult::kEqual;
    }
    return true;
  }
  // A's supremum: its exact value, else the exclusive upper bound.
  const Weight a_sup = a.exact() ? ra.lb : ra.ub;
  const Weight b_sup = b.exact() ? rb.lb : rb.ub;
  // a < b guaranteed: a <= a_sup (strictly below ub when inexact) and
  // b >= rb.lb. Exact-vs-boundary ties stay ambiguous (could be equal).
  if (a.exact() ? a_sup < rb.lb : a_sup <= rb.lb) {
    *result = CompareResult::kLess;
    return true;
  }
  if (b.exact() ? b_sup < ra.lb : b_sup <= ra.lb) {
    *result = CompareResult::kGreater;
    return true;
  }
  return false;
}

}  // namespace

RetrievalCursor::RetrievalCursor(const SignatureIndex* index, NodeId n,
                                 uint32_t object,
                                 const SignatureEntry* initial)
    : index_(index), object_(object), pos_(n) {
  DSIG_CHECK(index_ != nullptr);
  if (index_->object_node(object_) == pos_) {
    exact_ = true;
    range_ = {0, 0};
    return;
  }
  LoadEntry(initial);
}

void RetrievalCursor::LoadEntry(const SignatureEntry* initial) {
  SignatureEntry entry;
  if (initial != nullptr) {
    entry = *initial;
    DSIG_CHECK(!entry.compressed) << "pass resolved entries to the cursor";
  } else {
    entry = index_->ReadEntry(pos_, object_);
  }
  link_ = entry.link;
  const DistanceRange cat = index_->partition().RangeOf(entry.category);
  range_ = {accumulated_ + cat.lb,
            cat.ub == kInfiniteWeight ? kInfiniteWeight
                                      : accumulated_ + cat.ub};
}

bool RetrievalCursor::Step() {
  if (exact_) return false;
  const obs::Span span(obs::Phase::kBacktrack);
  ++GlobalOpCounters().backtrack_steps;
  // A healthy index reaches the object within one simple path; anything
  // longer means the backtracking links cycle (index corruption) — fail fast
  // rather than walk forever.
  ++steps_;
  DSIG_CHECK_LE(steps_, index_->graph().num_nodes())
      << "backtracking links do not reach object " << object_
      << "; the signature index is corrupt";
  // Follow the backtracking link: one adjacency page at the current node
  // (free when the schema merges it with the signature we just read and
  // both sit on a cached page).
  index_->TouchAdjacency(pos_);
  const auto& adjacency = index_->graph().adjacency(pos_);
  DSIG_CHECK_LT(link_, adjacency.size());
  const AdjacencyEntry& hop = adjacency[link_];
  DSIG_CHECK(!hop.removed) << "backtracking link points at a removed edge";
  accumulated_ += hop.weight;
  pos_ = hop.to;
  if (index_->object_node(object_) == pos_) {
    exact_ = true;
    range_ = {accumulated_, accumulated_};
    return true;
  }
  LoadEntry(nullptr);
  return true;
}

DistanceRange RetrievalCursor::RefineAgainst(const DistanceRange& delta) {
  while (!exact_ && range_.PartiallyIntersects(delta)) Step();
  return range_;
}

Weight RetrievalCursor::RetrieveExact() {
  while (!exact_) Step();
  return range_.lb;
}

Weight ExactDistance(const SignatureIndex& index, NodeId n, uint32_t object) {
  // Snapshot spans every backtracking step, so the link chain is walked
  // against one published index state. Re-entrant: free under an outer
  // query-level snapshot.
  const ReadSnapshot snapshot(index.epoch_gate());
  RetrievalCursor cursor(&index, n, object, nullptr);
  return cursor.RetrieveExact();
}

DistanceRange ApproximateDistance(const SignatureIndex& index, NodeId n,
                                  uint32_t object,
                                  const DistanceRange& delta) {
  const ReadSnapshot snapshot(index.epoch_gate());
  RetrievalCursor cursor(&index, n, object, nullptr);
  return cursor.RefineAgainst(delta);
}

CompareResult ExactCompare(const SignatureIndex& index, NodeId n, uint32_t a,
                           uint32_t b, const RowStage& stage) {
  const ReadSnapshot snapshot(index.epoch_gate());
  ++GlobalOpCounters().exact_compares;
  const SignatureEntry entry_a = stage.entry(a);
  const SignatureEntry entry_b = stage.entry(b);
  RetrievalCursor ca(&index, n, a, &entry_a);
  RetrievalCursor cb(&index, n, b, &entry_b);
  CompareResult result = CompareResult::kEqual;
  while (!Decided(ca, cb, &result)) {
    // Batched alternation (Algorithm 2): push one side as far as the other's
    // current range requires, then switch.
    bool progressed = false;
    if (!ca.exact() && ca.range().PartiallyIntersects(cb.range())) {
      ca.RefineAgainst(cb.range());
      progressed = true;
    }
    if (Decided(ca, cb, &result)) return result;
    if (!cb.exact() && cb.range().PartiallyIntersects(ca.range())) {
      cb.RefineAgainst(ca.range());
      progressed = true;
    }
    if (!progressed) {
      // Ranges coincide (e.g., both spans are the same category): neither
      // "partially" intersects the other, so force a step to break the tie.
      if (!ca.exact()) {
        ca.Step();
      } else {
        cb.Step();
      }
    }
  }
  return result;
}

namespace {

// Geometry for the observer heuristic (Fig 3.2). Objects a, b are embedded
// at (0,0) and (d_ab, 0); candidate positions of the node on the
// perpendicular bisector x = d_ab/2 have |y| in [y_min, y_max], derived from
// the node's (shared) category range toward a and b.
struct BisectorSegment {
  double x = 0;
  double y_min = 0;
  double y_max = 0;
  bool valid = false;
};

BisectorSegment ComputeBisectorSegment(double d_ab, double range_lb,
                                       double range_ub) {
  BisectorSegment segment;
  segment.x = d_ab / 2;
  const double base = segment.x * segment.x;
  const double hi = range_ub * range_ub - base;
  if (hi < 0) return segment;  // no bisector point satisfies the range
  const double lo = range_lb * range_lb - base;
  segment.y_min = lo > 0 ? std::sqrt(lo) : 0;
  segment.y_max = std::sqrt(hi);
  segment.valid = true;
  return segment;
}

// The bisector segment for the (a, b) embedding, or invalid when no bisector
// position is compatible with the shared category range (verdict kEqual).
BisectorSegment SegmentForPair(const CategoryPartition& partition,
                               uint8_t shared_category, double d_ab) {
  // The open-ended last category gets a pragmatic cap for the embedding.
  const DistanceRange shared = partition.RangeOf(shared_category);
  const double growth = partition.c() > 1 ? partition.c() : 2.0;
  const double shared_ub =
      shared.ub == kInfiniteWeight
          ? std::max<double>(shared.lb * growth, shared.lb + d_ab)
          : shared.ub;
  return ComputeBisectorSegment(d_ab, shared.lb, shared_ub);
}

// One observer's vote: -1 for "a is closer", +1 for "b is closer", 0 when it
// abstains (far pair, sits on the bisector, or its range straddles the
// candidate segment).
int ObserverVote(const CategoryPartition& partition,
                 const ObjectDistanceTable& table,
                 const BisectorSegment& segment, double d_ab, uint32_t a,
                 uint32_t b, uint32_t c, uint8_t observer_category) {
  if (table.IsFar(c, a) || table.IsFar(c, b)) return 0;
  const double d_ca = table.Get(c, a);
  const double d_cb = table.Get(c, b);
  if (d_ca == d_cb) return 0;  // the observer sits on the bisector itself

  // Triangulate the observer; clamp the discriminant (network distances
  // need not satisfy planar geometry exactly).
  const double cx = (d_ca * d_ca + d_ab * d_ab - d_cb * d_cb) / (2 * d_ab);
  const double cy2 = std::max(0.0, d_ca * d_ca - cx * cx);
  const double cy = std::sqrt(cy2);

  // Distance from the observer to the four candidate segment endpoints
  // (two y signs x two extremes); monotone along each segment, so the
  // extremes bound all candidate positions.
  double d_min = kInfiniteWeight, d_max = 0;
  for (const double sy : {+1.0, -1.0}) {
    for (const double y : {segment.y_min, segment.y_max}) {
      const double d = std::hypot(segment.x - cx, sy * y - cy);
      d_min = std::min(d_min, d);
      d_max = std::max(d_max, d);
    }
  }

  const DistanceRange observed = partition.RangeOf(observer_category);
  // Closer-to-a / closer-to-b side of the bisector, seen from c.
  const bool c_nearer_a = d_ca < d_cb;
  if (observed.ub != kInfiniteWeight && observed.ub <= d_min) {
    // n is closer to c than any bisector position: n lies on c's side.
    return c_nearer_a ? -1 : +1;
  }
  if (observed.lb >= d_max) {
    // n is farther from c than any bisector position: opposite side.
    return c_nearer_a ? +1 : -1;
  }
  return 0;
}

}  // namespace

CompareResult ApproximateCompare(const SignatureIndex& index,
                                 NodeId /*n: embedding is node-independent*/,
                                 uint32_t a, uint32_t b,
                                 const RowStage& stage) {
  const ReadSnapshot snapshot(index.epoch_gate());
  ++GlobalOpCounters().approx_compares;
  const uint8_t* cats = stage.categories();
  DSIG_CHECK(stage.flags()[a] == 0 && stage.flags()[b] == 0);
  if (cats[a] != cats[b]) {
    return cats[a] < cats[b] ? CompareResult::kLess : CompareResult::kGreater;
  }
  const CategoryPartition& partition = index.partition();
  const ObjectDistanceTable& table = index.object_table();
  if (table.IsFar(a, b)) return CompareResult::kEqual;  // cannot embed
  const double d_ab = table.Get(a, b);
  if (d_ab <= 0) return CompareResult::kEqual;  // co-located objects

  const BisectorSegment segment = SegmentForPair(partition, cats[a], d_ab);
  if (!segment.valid) return CompareResult::kEqual;

  // Observer pre-filter in one vector pass: the candidates are exactly the
  // entries with category strictly below a's. a and b themselves (equal
  // category) and unresolved entries (0xFF sentinel lanes) fall outside the
  // extraction range, so no per-entry exclusion tests remain.
  static thread_local std::vector<uint32_t> observers;
  if (observers.size() < stage.size()) observers.resize(stage.size());
  const size_t count = simd::Kernels().extract_in_range(
      cats, stage.size(), 0, cats[a], observers.data());

  int votes_a = 0, votes_b = 0;  // votes for "a is closer" / "b is closer"
  for (size_t j = 0; j < count; ++j) {
    const uint32_t c = observers[j];
    const int vote =
        ObserverVote(partition, table, segment, d_ab, a, b, c, cats[c]);
    if (vote < 0) {
      ++votes_a;
    } else if (vote > 0) {
      ++votes_b;
    }
  }
  if (votes_a > votes_b) return CompareResult::kLess;
  if (votes_b > votes_a) return CompareResult::kGreater;
  return CompareResult::kEqual;
}

namespace {

// Exact comparison over *persistent* cursors: identical decision procedure
// to ExactCompare, but refinement progress survives across comparisons, so a
// sort's total backtracking is bounded by one walk per object instead of one
// per pair — the I/O-batching reading of §3.2.2.
CompareResult CompareWithCursors(RetrievalCursor* ca, RetrievalCursor* cb) {
  ++GlobalOpCounters().exact_compares;
  CompareResult result = CompareResult::kEqual;
  while (!Decided(*ca, *cb, &result)) {
    bool progressed = false;
    if (!ca->exact() && ca->range().PartiallyIntersects(cb->range())) {
      ca->RefineAgainst(cb->range());
      progressed = true;
    }
    if (Decided(*ca, *cb, &result)) return result;
    if (!cb->exact() && cb->range().PartiallyIntersects(ca->range())) {
      cb->RefineAgainst(ca->range());
      progressed = true;
    }
    if (!progressed) {
      if (!ca->exact()) {
        ca->Step();
      } else {
        cb->Step();
      }
    }
  }
  return result;
}

}  // namespace

bool ApproximateSortByDistance(const SignatureIndex& index, NodeId n,
                               const RowStage& stage,
                               std::vector<uint32_t>* objects) {
  std::vector<uint32_t>& objs = *objects;
  for (size_t i = 1; i < objs.size(); ++i) {
    if ((i & 15u) == 0 && DeadlineExpired()) return false;
    const uint32_t value = objs[i];
    size_t j = i;
    while (j > 0 && ApproximateCompare(index, n, value, objs[j - 1], stage) ==
                        CompareResult::kLess) {
      objs[j] = objs[j - 1];
      --j;
    }
    objs[j] = value;
  }
  return true;
}

void SortByDistance(const SignatureIndex& index, NodeId n,
                    const RowStage& stage, std::vector<uint32_t>* objects) {
  const obs::Span span(obs::Phase::kSort);
  const ReadSnapshot snapshot(index.epoch_gate());
  if (!ApproximateSortByDistance(index, n, stage, objects)) return;
  std::vector<uint32_t>& objs = *objects;
  // Refinement (Algorithm 4): exact-compare consecutive pairs, bubbling a
  // switched element back until the order is confirmed. One cursor per
  // object persists across comparisons.
  std::vector<std::unique_ptr<RetrievalCursor>> cursors(stage.size());
  const auto cursor_of = [&](uint32_t object) {
    if (cursors[object] == nullptr) {
      const SignatureEntry initial = stage.entry(object);
      cursors[object] =
          std::make_unique<RetrievalCursor>(&index, n, object, &initial);
    }
    return cursors[object].get();
  };
  size_t i = 0;
  while (objs.size() > 1 && i + 1 < objs.size()) {
    // Each exact comparison can cost several backtracking page reads, so the
    // refinement loop is the sort's deadline phase boundary. Aborting leaves
    // `objects` an approximately-ordered permutation — callers observe
    // DeadlineExpired() and tag the result partial.
    if (DeadlineExpired()) return;
    if (CompareWithCursors(cursor_of(objs[i]), cursor_of(objs[i + 1])) ==
        CompareResult::kGreater) {
      std::swap(objs[i], objs[i + 1]);
      if (i > 0) {
        --i;
        continue;
      }
    }
    ++i;
  }
}

}  // namespace dsig
