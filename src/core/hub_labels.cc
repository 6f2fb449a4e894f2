#include "core/hub_labels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
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
constexpr uint32_t kLabelVersion = 2;

// v2 blob header (layout in hub_labels.h): magic and version at 32 bits;
// node count, mean-weight IEEE bits, pruned settles and entry count at 64;
// then the three field widths at 8 bits each. 43 bytes, byte-aligned.
constexpr int kWidthFieldBits = 8;
constexpr size_t kHeaderBits = 2 * 32 + 4 * 64 + 3 * kWidthFieldBits;
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

// True when `d` round-trips through a uint64_t bit for bit: whole,
// non-negative (and not -0.0), below 2^53. NaN fails the comparison.
bool IsPackableDistance(double d) {
  return !std::signbit(d) && d < 0x1p53 && d == std::floor(d);
}

double MeanLiveEdgeWeight(const RoadNetwork& graph) {
  double sum = 0;
  size_t count = 0;
  for (EdgeId e = 0; e < graph.num_edge_slots(); ++e) {
    if (graph.edge_removed(e)) continue;
    sum += graph.edge_weight(e);
    ++count;
  }
  return count == 0 ? 1.0 : sum / static_cast<double>(count);
}

// Centrality scores for the vertex order. kDegree: adjacency size. kCoverage:
// adds, over sampled shortest-path trees, the size of each node's subtree —
// the number of sampled shortest paths it lies on, which is precisely how
// useful it is as an early hub.
std::vector<double> CentralityScores(const RoadNetwork& graph,
                                     const HubLabels::BuildOptions& options,
                                     ThreadPool* pool) {
  const size_t n = graph.num_nodes();
  std::vector<double> score(n);
  for (NodeId v = 0; v < n; ++v) {
    score[v] = static_cast<double>(graph.degree(v));
  }
  if (options.order != HubLabels::BuildOptions::Order::kCoverage || n < 2) {
    return score;
  }
  const size_t samples = std::min(options.coverage_samples, n);
  std::mt19937_64 rng(options.seed);
  std::vector<NodeId> roots(samples);
  for (size_t s = 0; s < samples; ++s) {
    roots[s] = static_cast<NodeId>(rng() % n);
  }
  std::vector<std::vector<double>> subtree(samples);
  const auto run_sample = [&](size_t s) {
    const ShortestPathTree tree = RunDijkstra(graph, roots[s]);
    std::vector<double>& size = subtree[s];
    size.assign(n, 0);
    for (size_t i = tree.settle_order.size(); i-- > 0;) {
      const NodeId v = tree.settle_order[i];
      size[v] += 1;
      if (tree.parent[v] != kInvalidNode) size[tree.parent[v]] += size[v];
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(samples, run_sample);
  } else {
    for (size_t s = 0; s < samples; ++s) run_sample(s);
  }
  // Subtree sizes dominate the degree term (which only breaks ties among
  // nodes the samples never separated).
  for (size_t s = 0; s < samples; ++s) {
    for (NodeId v = 0; v < n; ++v) score[v] += subtree[s][v] * 1024.0;
  }
  return score;
}

}  // namespace

std::shared_ptr<HubLabels> HubLabels::Build(const RoadNetwork& graph,
                                            const BuildOptions& options,
                                            ThreadPool* pool) {
  auto labels = std::shared_ptr<HubLabels>(new HubLabels());
  const size_t n = graph.num_nodes();
  labels->num_nodes_ = n;
  labels->mean_edge_weight_ = MeanLiveEdgeWeight(graph);
  labels->decoded_.store(true, std::memory_order_release);
  labels->decode_ok_.store(true, std::memory_order_release);
  if (n == 0) {
    labels->offsets_.assign(1, 0);
    return labels;
  }

  // Vertex order: highest score first, node id breaking exact ties so the
  // build is deterministic for every thread count.
  const std::vector<double> score = CentralityScores(graph, options, pool);
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  std::stable_sort(order.begin(), order.end(), [&score](NodeId a, NodeId b) {
    return score[a] > score[b];
  });
  std::vector<uint32_t>& rank_of = labels->rank_of_;
  rank_of.assign(n, 0);
  for (uint32_t r = 0; r < n; ++r) rank_of[order[r]] = r;

  // Per-node growing labels; appended in rank order, so each stays sorted
  // ascending by hub rank for free.
  std::vector<std::vector<uint32_t>> hub_of(n);
  std::vector<std::vector<double>> dist_of(n);

  // Pruned Dijkstra per root, in rank order. Stamped scratch arrays avoid an
  // O(n) clear per root.
  std::vector<Weight> dist(n, kInfiniteWeight);
  std::vector<uint32_t> dist_stamp(n, 0);
  std::vector<Weight> root_dist(n, kInfiniteWeight);  // root's label, by hub
  std::vector<uint32_t> root_stamp(n, 0);
  uint32_t stamp = 0;
  uint64_t pruned = 0;
  using QueueEntry = std::pair<Weight, NodeId>;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue;

  for (uint32_t rank = 0; rank < n; ++rank) {
    const NodeId root = order[rank];
    ++stamp;
    // Index the root's current label for O(1) lookups during this search.
    for (size_t i = 0; i < hub_of[root].size(); ++i) {
      root_dist[hub_of[root][i]] = dist_of[root][i];
      root_stamp[hub_of[root][i]] = stamp;
    }
    dist[root] = 0;
    dist_stamp[root] = stamp;
    queue.push({0, root});
    while (!queue.empty()) {
      const auto [d, u] = queue.top();
      queue.pop();
      if (dist_stamp[u] != stamp || d > dist[u]) continue;  // stale entry
      dist[u] = -1;  // settled marker (real distances are >= 0)
      // Prune: if the labels built so far already certify d(root, u) <= d
      // through an earlier hub, u needs no entry for this root and the
      // search need not expand it.
      Weight via_labels = kInfiniteWeight;
      for (size_t i = 0; i < hub_of[u].size(); ++i) {
        const uint32_t h = hub_of[u][i];
        if (root_stamp[h] == stamp) {
          via_labels = std::min(via_labels, dist_of[u][i] + root_dist[h]);
        }
      }
      if (via_labels <= d) {
        ++pruned;
        continue;
      }
      hub_of[u].push_back(rank);
      dist_of[u].push_back(d);
      if (u == root) {  // keep the root's index current with its new entry
        root_dist[rank] = 0;
        root_stamp[rank] = stamp;
      }
      for (const AdjacencyEntry& hop : graph.adjacency(u)) {
        if (hop.removed) continue;
        const Weight nd = d + hop.weight;
        if (dist_stamp[hop.to] != stamp) {
          dist_stamp[hop.to] = stamp;
          dist[hop.to] = nd;
          queue.push({nd, hop.to});
        } else if (dist[hop.to] >= 0 && nd < dist[hop.to]) {
          dist[hop.to] = nd;
          queue.push({nd, hop.to});
        }
      }
    }
  }
  labels->pruned_settles_ = pruned;

  // Flatten into the canonical SoA pools (offsets are sequential; the copy
  // itself parallelizes).
  std::vector<uint64_t>& offsets = labels->offsets_;
  offsets.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + hub_of[v].size();
  }
  labels->hubs_.resize(offsets[n]);
  labels->dists_.resize(offsets[n]);
  const auto flatten = [&](size_t v) {
    std::copy(hub_of[v].begin(), hub_of[v].end(),
              labels->hubs_.begin() + static_cast<ptrdiff_t>(offsets[v]));
    std::copy(dist_of[v].begin(), dist_of[v].end(),
              labels->dists_.begin() + static_cast<ptrdiff_t>(offsets[v]));
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
  const double mean_weight = std::bit_cast<double>(in.ReadBits(64));
  const uint64_t pruned = in.ReadBits(64);
  const uint64_t entries = in.ReadBits(64);
  const int hub_width = static_cast<int>(in.ReadBits(kWidthFieldBits));
  const int len_width = static_cast<int>(in.ReadBits(kWidthFieldBits));
  const int dist_width = static_cast<int>(in.ReadBits(kWidthFieldBits));
  if (!std::isfinite(mean_weight) || mean_weight <= 0) return false;
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
  mean_edge_weight_ = mean_weight;
  pruned_settles_ = pruned;
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
  s.pruned_settles = pruned_settles_;
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
  out.WriteBits(std::bit_cast<uint64_t>(mean_edge_weight_), 64);
  out.WriteBits(pruned_settles_, 64);
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
