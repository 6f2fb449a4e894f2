// Exact-distance hub labels (pruned landmark labeling, a.k.a. 2-hop cover).
//
// Signatures answer *categorical* distance for free and exact distance by
// link-chasing — one row decode plus one adjacency page per hop. A pruned
// 2-hop labeling answers the same exact point-to-point query by merging two
// short sorted arrays: every node u carries a label L(u) of (hub rank,
// distance) pairs such that for any u, v some hub on a shortest u-v path
// appears in both labels, so
//
//     d(u, v) = min over shared hubs h of  d(u, h) + d(h, v).
//
// Construction (Akiba et al.'s pruned landmark labeling): order the nodes,
// then run one *pruned* Dijkstra per node in that order. When the Dijkstra
// from root r settles u at distance d, the already built labels are queried
// first — if they certify d(r, u) <= d through an earlier hub, u is pruned:
// it gets no entry for r and the search does not expand it. Early roots
// therefore build big trees and every later root's tree collapses to a thin
// residual, which is what keeps labels short. The result is the canonical
// labeling for the order: L(v) holds (r, d(r, v)) exactly when no node
// ranked before r lies on any shortest r-v path.
//
// The roots run in batches of consecutive ranks [b, e), whose searches run
// concurrently on the pool's T threads (ParallelFor's caller and its T - 1
// helpers). A batch holds min(b / 4, 512) roots, at least T: early roots are
// few and costly, later ones many and cheap. Each search is pruned by the
// labels of the earlier batches, and by a rank flag for the earlier roots of
// its own batch (the PLaNT rule: Lakhotia et al., "Planting Trees for
// scalable and efficient Canonical Hub Labeling", PVLDB 13(4), 2019). A
// settled node that the labels do not certify is blocked when its rank lies
// in [b, r) or when any tight predecessor (d(p) + w == d(u)) is blocked; it
// gets no entry but is still expanded, so the flag reaches every node behind
// it, and the search stops once every tentative node is blocked. The entries
// are appended on the calling thread in rank order after the batch, so the
// labels are the canonical ones at every thread count. The flag compares
// path sums for equality, so batches need every sum exact: with a fractional
// live weight, or live weights that sum to 2^53 or more, or with fewer than
// two threads, every batch holds one root, which is the sequential loop.
// Each participant owns 17 B of scratch per node.
//
// The order decides the label size, so it is a greedy cover of sampled
// shortest paths (the sampling scheme of RXL: Delling, Goldberg, Pajor and
// Werneck, "Robust Distance Queries on Massive Networks", ESA 2014). Grow
// `coverage_samples` shortest-path trees from seeded random roots, then
// repeatedly rank next the node that lies on the most sampled root-to-node
// paths no earlier node lies on; taking a node subtracts its subtree from
// its ancestors and zeroes its descendants in every tree. Once every sampled
// path is covered, the remaining nodes follow by static score: their subtree
// sizes summed over the samples, then their live degree, then node id. The
// trees grow on the shared ThreadPool into per-tree slices of arrays the
// calling thread allocates (16 B per node per sample: each node's position
// in a preorder that keeps every subtree contiguous, and per position the
// node, its parent's position and its uncovered count), so covering a
// subtree is a sequential scan. They are freed before the first pruned
// Dijkstra.
// The greedy runs on the calling thread and depends on the graph alone, so
// the order, and with it the labels, is byte-identical at every thread
// count. The sample trees and the pruned Dijkstras all read one CSR
// snapshot of the live adjacency.
//
// The label arrays are canonical: per node, hubs strictly ascending by rank
// with their distances in lockstep — exactly the layout the simd
// `label_merge` kernel consumes. Every node's label contains its own rank at
// distance 0.
//
// Distances are exact, not categorical, and because every graph generator
// produces integer-valued edge weights (graph/graph_generator.h), the label
// sums d(u,h) + d(h,v) are bitwise equal to the distances guided
// backtracking accumulates edge by edge — the planner (query/planner.h)
// answers every exact distance from usable labels without perturbing a
// single result bit.
//
// Staleness: labels are immutable after construction. Any WAL-applied
// network change makes them permanently stale (MarkStale, a sticky latch the
// updater trips) until a rebuild installs a fresh instance; the planner
// demotes stale labels to the incrementally-maintained signature/Dijkstra
// paths.
//
// Persistence: one opaque blob (Serialize / FromSerialized) stored as an
// optional CRC32C section of the index file. Format v3 is a BitWriter stream
// (LSB-first) in which every field of a kind has one fixed bit width:
//
//   header  magic "DSGL" (32) | version 3 (32) | node count n (64) |
//           entry count (64) | hub width | length width | distance width
//           (8 each) — 27 bytes
//   ranks   rank_of[v] for every node, at the hub width
//   lengths |L(v)| for every node, at the length width
//   hubs    every label's hub ranks in pool order, at the hub width
//   dists   every label's distances in pool order, at the distance width
//
// then zero padding to the byte. The writer picks the narrowest widths:
// bit_width(n - 1) for ranks and hubs, bit_width(longest label) for lengths
// and bit_width(max distance) for distances, each at least 1. Distances are
// stored as integers — every generator and DIMACS file has integer weights,
// so every label distance is a whole number. If any distance would not
// survive that bit for bit (fractional, negative, -0.0, or 2^53 and above),
// all of them are stored as raw 64-bit IEEE patterns instead, marked by a
// distance width of 64. At 20k nodes the blob is about a quarter of v1's
// full-width u32/u64/f64 arrays.
//
// The decoder trusts nothing: it checks the widths (1..32 for hubs and
// lengths, 1..53 or 64 for distances) and both counts against the bits left
// before it allocates a pool, requires the lengths to sum to the entry count
// and the stream to end on the last field, then checks the label structure.
// Any other version does not decode, v1 and v2 included: a file written
// before v3 loads without a usable label tier (ready() == false), and a deep
// SignatureIndex::Verify of it reports the label section. Decode is lazy —
// deferred to first use — so loading an index never pays for a tier the
// workload may not touch.
#ifndef DSIG_CORE_HUB_LABELS_H_
#define DSIG_CORE_HUB_LABELS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/road_network.h"
#include "util/status.h"

namespace dsig {

class ThreadPool;

// Construction-time accounting, reported by dsig_tool and the benches.
struct HubLabelStats {
  uint64_t entries = 0;       // total (hub, dist) pairs
  uint64_t bytes = 0;         // decoded in-memory footprint of the pools
  double avg_label_entries = 0;
};

class HubLabels {
 public:
  struct BuildOptions {
    // Shortest-path trees sampled for the greedy vertex order ("Construction"
    // above). 0 orders the nodes by live degree, then node id.
    size_t coverage_samples = 64;
    uint64_t seed = 0x9e3779b97f4a7c15ull;  // picks the sampled roots
  };

  // Builds labels for every node of `graph`. `pool` grows the sample trees,
  // runs the batches of pruned Dijkstras and the flattening sweep (null =
  // run on the caller, one root at a time).
  static std::shared_ptr<HubLabels> Build(const RoadNetwork& graph,
                                          const BuildOptions& options,
                                          ThreadPool* pool);

  // Wraps a serialized blob without decoding it; the first call that needs
  // the pools decodes under a once-flag. A blob that fails to decode makes
  // ready() false and the instance permanently unusable (the planner then
  // routes around it) — never a crash.
  static std::shared_ptr<HubLabels> FromSerialized(std::vector<uint8_t> blob);

  HubLabels(const HubLabels&) = delete;
  HubLabels& operator=(const HubLabels&) = delete;

  // Forces the lazy decode; true when the pools are usable.
  bool ready() const;

  // Exact d(u, v) via one label_merge kernel call; kInfiniteWeight when the
  // nodes share no hub (disconnected) or the instance is not ready().
  Weight Distance(NodeId u, NodeId v) const;

  // The decoded pools, for kernel-level consumers (benches, tests).
  // Valid only when ready().
  size_t num_nodes() const { return num_nodes_; }
  const uint32_t* hubs(NodeId n) const { return hubs_.data() + offsets_[n]; }
  const double* dists(NodeId n) const { return dists_.data() + offsets_[n]; }
  size_t label_size(NodeId n) const { return offsets_[n + 1] - offsets_[n]; }

  HubLabelStats stats() const;

  // --- Staleness latch -----------------------------------------------------

  // Sticky: set by the updater on any WAL-applied network change; cleared
  // only by building a fresh instance.
  void MarkStale() { stale_.store(true, std::memory_order_release); }
  bool stale() const { return stale_.load(std::memory_order_acquire); }

  // --- Persistence ---------------------------------------------------------

  // The v3 bit-packed blob described at the top of this file. The caller
  // frames it (CRC section, length prefix); FromSerialized re-checks the
  // internal structure on lazy decode anyway, so torn frames degrade, not
  // crash. Decoding the blob reproduces the pools bit for bit.
  std::vector<uint8_t> Serialize() const;

  // --- Integrity -----------------------------------------------------------

  // Deep structural verification against `graph` (for SignatureIndex::Verify
  // coverage of loaded files): decodes if needed, then checks that offsets
  // are monotone, hub ranks are a permutation image (every label ascending,
  // in range, self-entry at distance 0), distances are finite and
  // non-negative, and — on a handful of sampled roots — that Distance()
  // agrees exactly with a Dijkstra ground truth.
  Status VerifyStructure(const RoadNetwork& graph) const;

 private:
  HubLabels() = default;

  // Decodes blob_ into the pools; called once, lazily.
  void EnsureDecoded() const;
  bool DecodeBlob() const;

  // Filled by Build() or the lazy decode.
  mutable size_t num_nodes_ = 0;
  mutable std::vector<uint64_t> offsets_;  // num_nodes_ + 1
  mutable std::vector<uint32_t> rank_of_;  // node -> rank (permutation)
  mutable std::vector<uint32_t> hubs_;     // per-label ascending ranks
  mutable std::vector<double> dists_;

  // Lazy-decode state.
  mutable std::vector<uint8_t> blob_;
  mutable std::once_flag decode_once_;
  mutable std::atomic<bool> decoded_{false};
  mutable std::atomic<bool> decode_ok_{false};

  std::atomic<bool> stale_{false};
};

// Refreshes the labels.* gauges (present / entries / bytes / avg_entries /
// stale) in the global metrics registry. Pass null for "no label tier".
void PublishHubLabelMetrics(const HubLabels* labels);

}  // namespace dsig

#endif  // DSIG_CORE_HUB_LABELS_H_
