#include "core/hub_labels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <queue>
#include <random>
#include <utility>

#include "graph/dijkstra.h"
#include "obs/metrics.h"
#include "util/bitstream.h"
#include "util/logging.h"
#include "util/simd/simd.h"
#include "util/thread_pool.h"

namespace dsig {
namespace {

constexpr uint32_t kLabelMagic = 0x4c475344;  // "DSGL"
constexpr uint32_t kLabelVersion = 3;

// v3 blob header (layout in hub_labels.h): magic and version at 32 bits;
// node count and entry count at 64; then the three field widths at 8 bits
// each. 27 bytes, byte-aligned.
constexpr int kWidthFieldBits = 8;
constexpr size_t kHeaderBits = 2 * 32 + 2 * 64 + 3 * kWidthFieldBits;
static_assert(kHeaderBits % 8 == 0);
// Ranks and label lengths are u32s.
constexpr int kMaxIndexWidth = 32;
// Integers below 2^53 convert to double and back exactly.
constexpr int kMaxIntegerDistanceWidth = 53;
// The distance width that marks raw IEEE-754 bit patterns.
constexpr int kRawDistanceWidth = 64;

// Bits for values in [0, max_value]. Never 0: a zero-width field would let
// a few header bytes claim any count.
int FieldWidth(uint64_t max_value) {
  return std::max(1, static_cast<int>(std::bit_width(max_value)));
}

// Whether every path length is an exact double: every live weight a whole
// number and their total below 2^53. Only then does the batch flag's tie
// test d(p) + w == d(u) agree with the label query's comparison of sums.
bool PathSumsAreExact(const RoadNetwork& graph) {
  double total = 0;
  for (EdgeId e = 0; e < graph.num_edge_slots(); ++e) {
    if (graph.edge_removed(e)) continue;
    const Weight w = graph.edge_weight(e);
    if (w != std::trunc(w)) return false;
    total += w;
  }
  return total < 0x1p53;
}

using MinHeap = std::priority_queue<std::pair<Weight, NodeId>,
                                    std::vector<std::pair<Weight, NodeId>>,
                                    std::greater<>>;

// The live adjacency as CSR: node v's live edges, in adjacency order, are
// arcs[offset[v], offset[v + 1]). One snapshot per Build(); the sample trees
// and the pruned Dijkstras read it instead of skipping tombstones.
struct LiveCsr {
  struct Arc {
    Weight weight;
    NodeId to;
  };
  std::vector<size_t> offset;
  std::vector<Arc> arcs;

  explicit LiveCsr(const RoadNetwork& graph) : offset(graph.num_nodes() + 1) {
    arcs.reserve(2 * graph.num_edges());
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      for (const AdjacencyEntry& hop : graph.adjacency(v)) {
        if (!hop.removed) arcs.push_back({hop.weight, hop.to});
      }
      offset[v + 1] = arcs.size();
    }
  }
  size_t num_nodes() const { return offset.size() - 1; }
  size_t degree(NodeId v) const { return offset[v + 1] - offset[v]; }
  const Arc* begin(NodeId v) const { return arcs.data() + offset[v]; }
  const Arc* end(NodeId v) const { return arcs.data() + offset[v + 1]; }
};

// One sampled shortest-path tree, as views of its n-entry slices of the
// arrays the greedy order owns. Its `reached` nodes sit at preorder
// positions [0, reached): every subtree is a run of positions that starts at
// its root, so covering one is a sequential scan. `size[p]` counts the
// tree's root-to-x paths through the node at p that no taken node covers
// yet; before the first take that is its subtree size.
struct SampleTree {
  static constexpr uint32_t kNone = ~uint32_t{0};
  uint32_t* position = nullptr;  // by node; kNone if the root does not reach it
  NodeId* node = nullptr;        // by position
  uint32_t* parent = nullptr;    // by position; kNone at the root
  uint32_t* size = nullptr;      // by position
  uint32_t reached = 0;
};

// Fills `tree` with the shortest-path tree from `root`.
void GrowSampleTree(const LiveCsr& csr, NodeId root, SampleTree* tree) {
  const size_t n = csr.num_nodes();
  std::vector<Weight> dist(n, kInfiniteWeight);
  std::vector<NodeId> parent(n, kInvalidNode);
  std::vector<NodeId> settled;
  MinHeap queue;
  dist[root] = 0;
  queue.push({0, root});
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (d > dist[u]) continue;  // stale entry
    settled.push_back(u);
    for (const LiveCsr::Arc* a = csr.begin(u); a != csr.end(u); ++a) {
      const Weight nd = d + a->weight;
      if (nd < dist[a->to]) {
        dist[a->to] = nd;
        parent[a->to] = u;
        queue.push({nd, a->to});
      }
    }
  }
  std::vector<uint32_t> subtree(n, 0);
  for (size_t i = settled.size(); i-- > 0;) {
    const NodeId v = settled[i];
    subtree[v] += 1;
    if (parent[v] != kInvalidNode) subtree[parent[v]] += subtree[v];
  }
  // Preorder: in settle order (parents first), each child claims the next
  // subtree-sized run inside its parent's run.
  std::fill_n(tree->position, n, SampleTree::kNone);
  std::vector<uint32_t> next_free(n);
  for (const NodeId v : settled) {
    uint32_t p = 0;
    uint32_t parent_position = SampleTree::kNone;
    if (parent[v] != kInvalidNode) {
      parent_position = tree->position[parent[v]];
      p = next_free[parent[v]];
      next_free[parent[v]] += subtree[v];
    }
    next_free[v] = p + 1;
    tree->position[v] = p;
    tree->node[p] = v;
    tree->parent[p] = parent_position;
    tree->size[p] = subtree[v];
  }
  tree->reached = static_cast<uint32_t>(settled.size());
}

// A node in the greedy order's lazy max-heap: most uncovered sampled paths
// first, then the higher static score, then the lower node id.
struct Candidate {
  uint64_t uncovered;
  uint64_t static_score;
  NodeId node;

  bool operator<(const Candidate& o) const {
    if (uncovered != o.uncovered) return uncovered < o.uncovered;
    if (static_score != o.static_score) return static_score < o.static_score;
    return node > o.node;
  }
};

// The vertex order: a greedy cover of sampled shortest paths (the sampling
// scheme of RXL, Delling et al., ESA 2014). Repeatedly ranks next the node
// on the most sampled root-to-x paths that no earlier node lies on, until
// every sampled path is covered; the nodes left follow in static-score
// order. The static score is the live degree plus 1024 times the node's
// subtree sizes summed over the samples.
std::vector<NodeId> GreedyCoverOrder(const LiveCsr& csr,
                                     const HubLabels::BuildOptions& options,
                                     ThreadPool* pool) {
  const size_t n = csr.num_nodes();
  const size_t samples = std::min(options.coverage_samples, n);
  std::mt19937_64 rng(options.seed);
  std::vector<NodeId> roots(samples);
  for (NodeId& root : roots) root = static_cast<NodeId>(rng() % n);

  std::vector<uint32_t> position(samples * n);
  std::vector<NodeId> node(samples * n);
  std::vector<uint32_t> parent(samples * n);
  std::vector<uint32_t> size(samples * n);
  std::vector<SampleTree> trees(samples);
  for (size_t s = 0; s < samples; ++s) {
    trees[s] = {position.data() + s * n, node.data() + s * n,
                parent.data() + s * n, size.data() + s * n};
  }
  const auto grow = [&](size_t s) {
    GrowSampleTree(csr, roots[s], &trees[s]);
  };
  if (pool != nullptr) {
    pool->ParallelFor(samples, grow);
  } else {
    for (size_t s = 0; s < samples; ++s) grow(s);
  }

  std::vector<uint64_t> uncovered(n, 0);
  for (const SampleTree& t : trees) {
    for (uint32_t p = 0; p < t.reached; ++p) uncovered[t.node[p]] += t.size[p];
  }
  std::vector<uint64_t> static_score(n);
  std::vector<Candidate> candidates;
  for (NodeId v = 0; v < n; ++v) {
    static_score[v] = 1024 * uncovered[v] + csr.degree(v);
    if (uncovered[v] > 0) {
      candidates.push_back({uncovered[v], static_score[v], v});
    }
  }
  std::priority_queue<Candidate> heap({}, std::move(candidates));

  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<char> ranked(n, 0);
  while (!heap.empty()) {
    Candidate top = heap.top();
    heap.pop();
    // Counts only fall, so a stale key overstates its node: re-queue it at
    // its current count, and take a node only when its key is current.
    if (top.uncovered != uncovered[top.node]) {
      if (uncovered[top.node] == 0) continue;
      top.uncovered = uncovered[top.node];
      heap.push(top);
      continue;
    }
    const NodeId v = top.node;
    order.push_back(v);
    ranked[v] = 1;
    // v covers every uncovered path through it: take them off v's
    // ancestors and zero v's subtree, in every tree.
    for (SampleTree& t : trees) {
      const uint32_t p = t.position[v];
      if (p == SampleTree::kNone || t.size[p] == 0) continue;
      const uint32_t covered = t.size[p];
      for (uint32_t a = t.parent[p]; a != SampleTree::kNone; a = t.parent[a]) {
        t.size[a] -= covered;
        uncovered[t.node[a]] -= covered;
      }
      // The subtree ends at the first position whose parent lies before p.
      for (uint32_t q = p; q < t.reached && (q == p || t.parent[q] >= p);
           ++q) {
        uncovered[t.node[q]] -= t.size[q];
        t.size[q] = 0;
      }
    }
  }

  const size_t covered_prefix = order.size();
  for (NodeId v = 0; v < n; ++v) {
    if (ranked[v] == 0) order.push_back(v);
  }
  std::sort(order.begin() + static_cast<ptrdiff_t>(covered_prefix),
            order.end(), [&static_score](NodeId a, NodeId b) {
              if (static_score[a] != static_score[b]) {
                return static_score[a] > static_score[b];
              }
              return a < b;
            });
  return order;
}

// A growing label's entry, 12 B rather than 16: the labels are the build's
// largest structure, and the prune test reads them entry by entry.
struct [[gnu::packed, gnu::aligned(4)]] HubEntry {
  uint32_t hub;  // rank
  Weight dist;
};

// Per node, the entries of every finished batch, ascending by hub rank.
using GrowingLabels = std::vector<std::vector<HubEntry>>;

// An entry a search found: the node, at its distance from the root.
struct LabelEntry {
  NodeId node;
  Weight dist;
};

// One participant's pruned-search scratch, 17 B per node. `root_dist` holds
// the root's label scattered by hub rank and +inf elsewhere, so the prune
// test needs no membership check; `dist` is +inf off the current search and
// -1 once settled; `blocked` is 1 where an earlier root of the batch lies
// on a shortest path. All three are reset entry by entry after each root.
// Cache-line aligned: the vectors' ends move on every push, and must not
// share a line with a sibling participant's.
struct alignas(64) PrunedSearch {
  explicit PrunedSearch(size_t n)
      : root_dist(n, kInfiniteWeight),
        dist(n, kInfiniteWeight),
        blocked(n, 0) {}

  // The search from `root`, of rank `rank`, in the batch that starts at rank
  // `batch_begin`: appends the root's entries to `found`.
  void Run(const LiveCsr& csr, const std::vector<uint32_t>& rank_of,
           const GrowingLabels& labels, NodeId root, uint32_t rank,
           uint32_t batch_begin);

  std::vector<Weight> root_dist;
  std::vector<Weight> dist;
  std::vector<uint8_t> blocked;
  std::vector<NodeId> reached;
  std::vector<std::pair<Weight, NodeId>> heap;  // a min-heap
  std::vector<LabelEntry> found;
};

void PrunedSearch::Run(const LiveCsr& csr, const std::vector<uint32_t>& rank_of,
                       const GrowingLabels& labels, NodeId root, uint32_t rank,
                       uint32_t batch_begin) {
  const std::vector<HubEntry>& root_label = labels[root];
  for (const HubEntry& e : root_label) root_dist[e.hub] = e.dist;
  const auto push = [this](Weight d, NodeId v) {
    heap.push_back({d, v});
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  };
  dist[root] = 0;
  reached.push_back(root);
  push(0, root);
  // Tentative nodes not blocked. Once there are none, every node left to
  // settle is blocked or pruned, and gets no entry.
  size_t open = 1;
  while (open > 0) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const auto [d, u] = heap.back();
    heap.pop_back();
    if (d > dist[u]) continue;  // stale or settled
    dist[u] = -1;
    if (blocked[u] == 0) --open;
    // Prune: if the labels of the earlier batches already certify
    // d(root, u) <= d through an earlier hub, u needs no entry for this
    // root and the search need not expand it.
    const std::vector<HubEntry>& label = labels[u];
    size_t i = 0;
    while (i < label.size() && label[i].dist + root_dist[label[i].hub] > d) ++i;
    if (i < label.size()) continue;
    // An earlier root of this batch on a shortest path to u (u itself, or
    // one behind a tight predecessor) would have pruned u had the roots run
    // one at a time: u gets no entry, but is expanded to pass the flag on.
    if (rank_of[u] >= batch_begin && rank_of[u] < rank) blocked[u] = 1;
    const uint8_t u_blocked = blocked[u];
    if (u_blocked == 0) found.push_back({u, d});
    for (const LiveCsr::Arc* a = csr.begin(u); a != csr.end(u); ++a) {
      const Weight nd = d + a->weight;
      Weight& to_dist = dist[a->to];
      uint8_t& to_blocked = blocked[a->to];
      if (nd < to_dist) {
        if (to_dist == kInfiniteWeight) {
          reached.push_back(a->to);
        } else if (to_blocked == 0) {
          --open;
        }
        to_dist = nd;
        to_blocked = u_blocked;
        if (u_blocked == 0) ++open;
        push(nd, a->to);
      } else if (nd == to_dist && u_blocked != 0 && to_blocked == 0) {
        to_blocked = 1;
        --open;
      }
    }
  }
  for (const HubEntry& e : root_label) root_dist[e.hub] = kInfiniteWeight;
  for (const NodeId v : reached) {
    dist[v] = kInfiniteWeight;
    blocked[v] = 0;
  }
  reached.clear();
  heap.clear();
}

}  // namespace

std::shared_ptr<HubLabels> HubLabels::Build(const RoadNetwork& graph,
                                            const BuildOptions& options,
                                            ThreadPool* pool) {
  auto labels = std::shared_ptr<HubLabels>(new HubLabels());
  const size_t n = graph.num_nodes();
  labels->num_nodes_ = n;
  labels->decoded_.store(true, std::memory_order_release);
  labels->decode_ok_.store(true, std::memory_order_release);
  if (n == 0) {
    labels->offsets_.assign(1, 0);
    return labels;
  }

  const LiveCsr csr(graph);
  const std::vector<NodeId> order = GreedyCoverOrder(csr, options, pool);
  std::vector<uint32_t>& rank_of = labels->rank_of_;
  rank_of.assign(n, 0);
  for (uint32_t r = 0; r < n; ++r) rank_of[order[r]] = r;

  // Per-node growing labels; appended in rank order, so each stays sorted
  // ascending by hub rank for free.
  GrowingLabels growing(n);

  // Pruned searches in batches of consecutive ranks; the roots of a batch
  // search concurrently, one participant per thread of the pool's
  // ParallelFor, and their entries join the labels in rank order once the
  // batch ends. Batches grow with the rank, as the searches shrink.
  const size_t participants = pool == nullptr ? 1 : pool->num_threads();
  const bool batched = participants > 1 && PathSumsAreExact(graph);
  std::vector<PrunedSearch> searches(participants, PrunedSearch(n));
  for (size_t begin = 0; begin < n;) {
    const size_t end = std::min(
        n, begin + (batched ? std::max(participants,
                                       std::min<size_t>(begin / 4, 512))
                            : 1));
    // Per root: its entries, found[first, last) of the participant that
    // ran it.
    struct RootResult {
      const PrunedSearch* search;
      size_t first;
      size_t last;
    };
    std::vector<RootResult> results(end - begin);
    std::atomic<size_t> next_rank{begin};
    const auto search = [&](size_t participant) {
      PrunedSearch& s = searches[participant];
      for (size_t rank = next_rank++; rank < end; rank = next_rank++) {
        const size_t first = s.found.size();
        s.Run(csr, rank_of, growing, order[rank], static_cast<uint32_t>(rank),
              static_cast<uint32_t>(begin));
        results[rank - begin] = {&s, first, s.found.size()};
      }
    };
    if (end - begin == 1) {
      search(0);
    } else {
      pool->ParallelFor(participants, search);
    }
    for (size_t rank = begin; rank < end; ++rank) {
      const RootResult& r = results[rank - begin];
      for (size_t i = r.first; i < r.last; ++i) {
        const LabelEntry& e = r.search->found[i];
        growing[e.node].push_back({static_cast<uint32_t>(rank), e.dist});
      }
    }
    for (PrunedSearch& s : searches) s.found.clear();
    begin = end;
  }

  // Flatten into the canonical SoA pools (offsets are sequential; the copy
  // itself parallelizes).
  std::vector<uint64_t>& offsets = labels->offsets_;
  offsets.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + growing[v].size();
  }
  labels->hubs_.resize(offsets[n]);
  labels->dists_.resize(offsets[n]);
  const auto flatten = [&](size_t v) {
    uint64_t i = offsets[v];
    for (const HubEntry& e : growing[v]) {
      labels->hubs_[i] = e.hub;
      labels->dists_[i] = e.dist;
      ++i;
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(n, flatten);
  } else {
    for (size_t v = 0; v < n; ++v) flatten(v);
  }
  return labels;
}

std::shared_ptr<HubLabels> HubLabels::FromSerialized(
    std::vector<uint8_t> blob) {
  auto labels = std::shared_ptr<HubLabels>(new HubLabels());
  labels->blob_ = std::move(blob);
  return labels;
}

void HubLabels::EnsureDecoded() const {
  if (decoded_.load(std::memory_order_acquire)) return;
  std::call_once(decode_once_, [this] {
    decode_ok_.store(DecodeBlob(), std::memory_order_release);
    decoded_.store(true, std::memory_order_release);
    blob_.clear();
    blob_.shrink_to_fit();
  });
}

bool HubLabels::DecodeBlob() const {
  // BitReader::ReadBits aborts past the end of the stream, so every read
  // below is covered by a length check made before it.
  if (blob_.size() < kHeaderBits / 8) return false;
  BitReader in(blob_);
  if (in.ReadBits(32) != kLabelMagic) return false;
  if (in.ReadBits(32) != kLabelVersion) return false;
  const uint64_t n = in.ReadBits(64);
  const uint64_t entries = in.ReadBits(64);
  const int hub_width = static_cast<int>(in.ReadBits(kWidthFieldBits));
  const int len_width = static_cast<int>(in.ReadBits(kWidthFieldBits));
  const int dist_width = static_cast<int>(in.ReadBits(kWidthFieldBits));
  if (hub_width < 1 || hub_width > kMaxIndexWidth || len_width < 1 ||
      len_width > kMaxIndexWidth) {
    return false;
  }
  const bool raw = dist_width == kRawDistanceWidth;
  if (dist_width < 1 || (dist_width > kMaxIntegerDistanceWidth && !raw)) {
    return false;
  }
  // Both counts against the bits left, before any pool is allocated. The
  // blob ends inside the byte holding the last field, on zero padding.
  const uint64_t left = in.size_bits() - in.position();
  const uint64_t node_bits = static_cast<uint64_t>(hub_width + len_width);
  const uint64_t entry_bits = static_cast<uint64_t>(hub_width + dist_width);
  if (n > left / node_bits) return false;
  if (entries > (left - n * node_bits) / entry_bits) return false;
  const uint64_t padding = left - n * node_bits - entries * entry_bits;
  if (padding >= 8) return false;

  std::vector<uint32_t> rank_of(n);
  for (uint32_t& r : rank_of) r = static_cast<uint32_t>(in.ReadBits(hub_width));
  std::vector<uint64_t> offsets(n + 1, 0);
  for (uint64_t v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + in.ReadBits(len_width);
    if (offsets[v + 1] > entries) return false;
  }
  if (offsets[n] != entries) return false;
  std::vector<uint32_t> hubs(entries);
  for (uint32_t& h : hubs) h = static_cast<uint32_t>(in.ReadBits(hub_width));
  std::vector<double> dists(entries);
  if (raw) {
    for (double& d : dists) d = std::bit_cast<double>(in.ReadBits(64));
  } else {
    for (double& d : dists) d = static_cast<double>(in.ReadBits(dist_width));
  }
  if (in.ReadBits(static_cast<int>(padding)) != 0) return false;

  // Structural checks the kernel contract depends on: per-label hubs are
  // strictly ascending ranks below n, distances finite and non-negative.
  for (uint64_t v = 0; v < n; ++v) {
    if (rank_of[v] >= n) return false;
    for (uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      if (hubs[i] >= n) return false;
      if (i > offsets[v] && hubs[i] <= hubs[i - 1]) return false;
      if (!std::isfinite(dists[i]) || dists[i] < 0) return false;
    }
  }

  num_nodes_ = n;
  rank_of_ = std::move(rank_of);
  offsets_ = std::move(offsets);
  hubs_ = std::move(hubs);
  dists_ = std::move(dists);
  return true;
}

bool HubLabels::ready() const {
  EnsureDecoded();
  return decode_ok_.load(std::memory_order_acquire);
}

Weight HubLabels::Distance(NodeId u, NodeId v) const {
  if (!ready()) return kInfiniteWeight;
  DSIG_CHECK(u < num_nodes_ && v < num_nodes_);
  const uint64_t ou = offsets_[u];
  const uint64_t ov = offsets_[v];
  return simd::Kernels().label_merge(
      hubs_.data() + ou, dists_.data() + ou, offsets_[u + 1] - ou,
      hubs_.data() + ov, dists_.data() + ov, offsets_[v + 1] - ov);
}

HubLabelStats HubLabels::stats() const {
  HubLabelStats s;
  if (!ready()) return s;
  s.entries = offsets_.empty() ? 0 : offsets_.back();
  s.bytes = hubs_.size() * sizeof(uint32_t) + dists_.size() * sizeof(double) +
            offsets_.size() * sizeof(uint64_t) +
            rank_of_.size() * sizeof(uint32_t);
  s.avg_label_entries =
      num_nodes_ == 0 ? 0
                      : static_cast<double>(s.entries) /
                            static_cast<double>(num_nodes_);
  return s;
}

std::vector<uint8_t> HubLabels::Serialize() const {
  DSIG_CHECK(ready()) << "cannot serialize undecodable hub labels";
  const uint64_t n = num_nodes_;
  const uint64_t entries = offsets_.back();
  uint64_t longest = 0;
  for (uint64_t v = 0; v < n; ++v) {
    longest = std::max(longest, offsets_[v + 1] - offsets_[v]);
  }
  const bool packable =
      std::all_of(dists_.begin(), dists_.end(), IsPackableDistance);
  const double max_dist =
      dists_.empty() ? 0 : *std::max_element(dists_.begin(), dists_.end());
  const int hub_width = FieldWidth(n == 0 ? 0 : n - 1);
  const int len_width = FieldWidth(longest);
  const int dist_width = packable
                             ? FieldWidth(static_cast<uint64_t>(max_dist))
                             : kRawDistanceWidth;

  BitWriter out;
  out.Reserve(kHeaderBits + n * static_cast<uint64_t>(hub_width + len_width) +
              entries * static_cast<uint64_t>(hub_width + dist_width));
  out.WriteBits(kLabelMagic, 32);
  out.WriteBits(kLabelVersion, 32);
  out.WriteBits(n, 64);
  out.WriteBits(entries, 64);
  out.WriteBits(static_cast<uint64_t>(hub_width), kWidthFieldBits);
  out.WriteBits(static_cast<uint64_t>(len_width), kWidthFieldBits);
  out.WriteBits(static_cast<uint64_t>(dist_width), kWidthFieldBits);
  for (uint64_t v = 0; v < n; ++v) out.WriteBits(rank_of_[v], hub_width);
  for (uint64_t v = 0; v < n; ++v) {
    out.WriteBits(offsets_[v + 1] - offsets_[v], len_width);
  }
  for (const uint32_t h : hubs_) out.WriteBits(h, hub_width);
  if (packable) {
    for (const double d : dists_) {
      out.WriteBits(static_cast<uint64_t>(d), dist_width);
    }
  } else {
    for (const double d : dists_) out.WriteBits(std::bit_cast<uint64_t>(d), 64);
  }
  return out.TakeBytes();
}

Status HubLabels::VerifyStructure(const RoadNetwork& graph) const {
  if (!ready()) {
    return Status::Corruption("hub-label blob does not decode");
  }
  const size_t n = num_nodes_;
  if (n != graph.num_nodes()) {
    return Status::Corruption(
        "hub labels cover " + std::to_string(n) + " nodes but the graph has " +
        std::to_string(graph.num_nodes()));
  }
  // rank_of must be a permutation of [0, n).
  std::vector<char> rank_seen(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (rank_of_[v] >= n || rank_seen[rank_of_[v]]++ != 0) {
      return Status::Corruption("hub-label vertex order is not a permutation");
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    const uint32_t* h = hubs(v);
    const double* d = dists(v);
    const size_t len = label_size(v);
    bool self = false;
    for (size_t i = 0; i < len; ++i) {
      if (h[i] >= n || (i > 0 && h[i] <= h[i - 1])) {
        return Status::Corruption("label of node " + std::to_string(v) +
                                  " is not strictly ascending in rank");
      }
      if (!std::isfinite(d[i]) || d[i] < 0) {
        return Status::Corruption("label of node " + std::to_string(v) +
                                  " holds a non-finite or negative distance");
      }
      if (h[i] == rank_of_[v]) {
        if (d[i] != 0) {
          return Status::Corruption("node " + std::to_string(v) +
                                    " is not at distance 0 from itself");
        }
        self = true;
      }
    }
    if (!self) {
      return Status::Corruption("label of node " + std::to_string(v) +
                                " is missing its self entry");
    }
  }
  // Metric spot check: a few full Dijkstras, every target compared. Exact
  // equality holds for integer-weight networks (all our generators); for
  // arbitrary weights allow last-ulp slack from differing summation orders.
  const size_t sample_roots = std::min<size_t>(n, 4);
  for (size_t s = 0; s < sample_roots; ++s) {
    const NodeId root = static_cast<NodeId>((s * n) / sample_roots);
    const ShortestPathTree tree = RunDijkstra(graph, root);
    for (NodeId v = 0; v < n; ++v) {
      const Weight got = Distance(root, v);
      const Weight want = tree.dist[v];
      if (got == want) continue;
      if (want != kInfiniteWeight && got != kInfiniteWeight &&
          std::abs(got - want) <= 1e-9 * std::max(1.0, want)) {
        continue;
      }
      return Status::Corruption(
          "hub-label distance(" + std::to_string(root) + ", " +
          std::to_string(v) + ") = " + std::to_string(got) +
          " disagrees with Dijkstra's " + std::to_string(want));
    }
  }
  return Status::Ok();
}

void PublishHubLabelMetrics(const HubLabels* labels) {
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Gauge* const present = registry.GetGauge("labels.present");
  static obs::Gauge* const entries = registry.GetGauge("labels.entries");
  static obs::Gauge* const bytes = registry.GetGauge("labels.bytes");
  static obs::Gauge* const avg = registry.GetGauge("labels.avg_entries");
  static obs::Gauge* const stale = registry.GetGauge("labels.stale");
  if (labels == nullptr || !labels->ready()) {
    present->Set(0);
    entries->Set(0);
    bytes->Set(0);
    avg->Set(0);
    stale->Set(0);
    return;
  }
  const HubLabelStats s = labels->stats();
  present->Set(1);
  entries->Set(static_cast<double>(s.entries));
  bytes->Set(static_cast<double>(s.bytes));
  avg->Set(s.avg_label_entries);
  stale->Set(labels->stale() ? 1 : 0);
}

}  // namespace dsig
