#include "core/signature_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <queue>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/op_counters.h"
#include "obs/trace.h"
#include "util/deadline.h"
#include "util/simd/simd.h"

namespace dsig {

SignatureIndex::SignatureIndex(const RoadNetwork* graph,
                               std::vector<NodeId> objects,
                               CategoryPartition partition,
                               SignatureCodec codec,
                               std::vector<EncodedRow> rows,
                               ObjectDistanceTable table,
                               SignatureSizeStats size_stats,
                               std::unique_ptr<SpanningForest> forest)
    : graph_(graph),
      objects_(std::move(objects)),
      partition_(std::move(partition)),
      codec_(std::move(codec)),
      rows_(std::move(rows)),
      table_(std::move(table)),
      compressor_(&partition_, &table_),
      size_stats_(size_stats),
      forest_(std::move(forest)),
      row_cache_(std::make_unique<RowCache>()) {
  DSIG_CHECK(graph_ != nullptr);
  DSIG_CHECK_EQ(rows_.size(), graph_->num_nodes());
  object_of_node_.assign(graph_->num_nodes(), kInvalidObject);
  for (uint32_t i = 0; i < objects_.size(); ++i) {
    object_of_node_[objects_[i]] = i;
  }
}

void SignatureIndex::ReadRowStaged(NodeId n, RowStage* stage) const {
  // One snapshot across decode *and* resolve: resolution consults the object
  // table, which the updater also rewrites.
  const ReadSnapshot snapshot(&gate_);
  {
    const obs::Span span(obs::Phase::kRowDecode);
    DSIG_CHECK_LT(n, rows_.size());
    ++GlobalOpCounters().row_reads;
    const EncodedRow& encoded = rows_.Read(n, snapshot.epoch());
    if (merged_) {
      // Only the signature portion of the combined record is scanned.
      store_.TouchRecordBits(n, adjacency_bits_[n],
                             adjacency_bits_[n] + encoded.size_bits);
    } else {
      store_.TouchRecord(n);
    }
    if (!codec_.TryDecodeRowStage(encoded, objects_.size(), stage)) {
      *stage = *FallbackRow(n);
      return;
    }
  }
  const obs::Span span(obs::Phase::kResolve);
  if (!compressor_.TryResolveStage(stage)) {
    // An entry decoded but cannot be resolved/validated — same degradation
    // path as an undecodable row.
    *stage = *FallbackRow(n);
  }
}

SignatureEntry SignatureIndex::ReadEntry(NodeId n,
                                         uint32_t object_index) const {
  const ReadSnapshot snapshot(&gate_);
  const obs::Span span(obs::Phase::kRowDecode);
  DSIG_CHECK_LT(n, rows_.size());
  DSIG_CHECK_LT(object_index, objects_.size());
  ++GlobalOpCounters().entry_reads;
  const EncodedRow& encoded = rows_.Read(n, snapshot.epoch());
  uint64_t bit_offset = 0;
  SignatureEntry entry;
  if (!codec_.TryDecodeEntry(encoded, object_index, &entry, &bit_offset)) {
    // Charge the page at the row's start — the read was attempted — then
    // degrade to the recomputed row.
    store_.TouchRecordAt(n, merged_ ? adjacency_bits_[n] : 0);
    return FallbackRow(n)->entry(object_index);
  }
  if (merged_) bit_offset += adjacency_bits_[n];
  store_.TouchRecordAt(n, bit_offset);
  if (entry.compressed) {
    const obs::Span resolve_span(obs::Phase::kResolve);
    ++GlobalOpCounters().resolves;
    // Decompression is CPU work against the in-memory object table plus the
    // already-fetched row (paper §5.3); no extra page charge. Resolved rows
    // are cached — backtracking walks revisit nodes constantly, and batch
    // workers share the LRU (the shared_ptr keeps a row alive for this read
    // even if another thread evicts it).
    std::shared_ptr<const RowStage> resolved = row_cache_->Get(n);
    if (resolved == nullptr) {
      // Decode into scratch and cache a copy: the copy carries the lanes
      // only, not the scratch's index buffer or spare capacity.
      static thread_local RowStage scratch;
      if (codec_.TryDecodeRowStage(encoded, objects_.size(), &scratch) &&
          compressor_.TryResolveStage(&scratch)) {
        resolved = std::make_shared<const RowStage>(scratch);
        row_cache_->Put(n, resolved);
      } else {
        resolved = FallbackRow(n);
      }
    }
    entry = resolved->entry(object_index);
  }
  return entry;
}

std::shared_ptr<const RowStage> SignatureIndex::FallbackRow(NodeId n) const {
  // A cached row for n can only be its fallback: ReadEntry caches only rows
  // that resolve, and the stored row never changes without dropping n's
  // entry (mutable_encoded_row, ReplaceRow).
  if (std::shared_ptr<const RowStage> cached = row_cache_->Get(n)) {
    return cached;
  }
  // Computed outside any lock — bounded Dijkstra is milliseconds, and other
  // readers must not stall behind it. A concurrent computation of the same
  // row is wasted work, not a correctness problem.
  auto row = std::make_shared<RowStage>();
  ComputeFallbackRow(n, row.get());
  fallback_cached_.store(true, std::memory_order_relaxed);
  row_cache_->Put(n, row);
  return row;
}

void SignatureIndex::ComputeFallbackRow(NodeId n, RowStage* row) const {
  const obs::Span span(obs::Phase::kDijkstraFallback);
  // The computed row is cached and outlives the current request, so it
  // must never be truncated by the request's deadline.
  const DeadlineScope shield(Deadline::Infinite());
  ++GlobalOpCounters().decode_fallbacks;
  // Dijkstra from n, bounded to stop once every object is settled; along the
  // way remember which adjacency slot of n each shortest path leaves through
  // — that slot is the backtracking link.
  const size_t num_nodes = graph_->num_nodes();
  std::vector<Weight> dist(num_nodes, kInfiniteWeight);
  std::vector<char> settled(num_nodes, 0);
  std::vector<uint8_t> first_slot(num_nodes, 0);
  using Item = std::pair<Weight, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> frontier;
  dist[n] = 0;
  frontier.push({0, n});
  size_t objects_left = objects_.size();
  while (!frontier.empty() && objects_left > 0) {
    const auto [d, u] = frontier.top();
    frontier.pop();
    if (settled[u]) continue;
    settled[u] = 1;
    if (object_of_node_[u] != kInvalidObject) --objects_left;
    const auto& adjacency = graph_->adjacency(u);
    for (size_t slot = 0; slot < adjacency.size(); ++slot) {
      const AdjacencyEntry& hop = adjacency[slot];
      if (hop.removed) continue;
      const Weight candidate = d + hop.weight;
      if (candidate < dist[hop.to]) {
        dist[hop.to] = candidate;
        first_slot[hop.to] =
            u == n ? static_cast<uint8_t>(slot) : first_slot[u];
        frontier.push({candidate, hop.to});
      }
    }
  }
  const int last_category = partition_.num_categories() - 1;
  row->Resize(objects_.size());
  uint8_t* const categories = row->categories();
  uint8_t* const links = row->links();
  std::memset(row->flags(), 0, objects_.size());
  for (uint32_t o = 0; o < objects_.size(); ++o) {
    const NodeId object_node = objects_[o];
    if (object_node == n) {
      categories[o] = 0;
      links[o] = 0;
    } else if (dist[object_node] == kInfiniteWeight) {
      // Signatures require a connected network; an unreachable object means
      // the graph itself degraded. Park it in the open-ended last category.
      categories[o] = static_cast<uint8_t>(last_category);
      links[o] = 0;
    } else {
      categories[o] =
          static_cast<uint8_t>(partition_.CategoryOf(dist[object_node]));
      links[o] = first_slot[object_node];
    }
  }
}

EncodedRow& SignatureIndex::mutable_encoded_row(NodeId n) {
  DSIG_CHECK_LT(n, rows_.size());
  row_cache_->Erase(n);
  return rows_.MutableNewest(n);
}

void SignatureIndex::InvalidateCachedRows(const std::vector<NodeId>& nodes) {
  for (const NodeId n : nodes) row_cache_->Erase(n);
}

void SignatureIndex::DropFallbackRows() {
  if (fallback_cached_.exchange(false, std::memory_order_relaxed)) {
    row_cache_->Clear();
  }
}

void SignatureIndex::ReclaimRetiredRows() {
  const uint64_t min_pinned = gate_.MinPinnedEpoch();
  rows_.Reclaim(min_pinned);
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Gauge* const epoch_gauge = registry.GetGauge("update.epoch");
  static obs::Gauge* const lag_gauge = registry.GetGauge("update.epoch_lag");
  static obs::Gauge* const retired_gauge =
      registry.GetGauge("update.retired_bytes");
  const uint64_t current = gate_.current_epoch();
  epoch_gauge->Set(static_cast<double>(current));
  lag_gauge->Set(static_cast<double>(current - min_pinned));
  retired_gauge->Set(static_cast<double>(rows_.retired_bytes()));
}

void SignatureIndex::ConfigureRowCache(const RowCache::Options& options) {
  row_cache_ = std::make_unique<RowCache>(options);
}

void SignatureIndex::AttachStorage(BufferManager* buffer,
                                   const NetworkStore* network,
                                   const std::vector<NodeId>& order) {
  std::vector<uint64_t> record_bits(rows_.size());
  for (size_t n = 0; n < rows_.size(); ++n) {
    record_bits[n] = rows_.ReadNewest(n).size_bits;
  }
  store_ = PagedStore(PageLayout(record_bits, order), buffer);
  network_store_ = network;
  merged_ = false;
  adjacency_bits_.clear();
}

void SignatureIndex::AttachMergedStorage(BufferManager* buffer,
                                         const std::vector<NodeId>& order) {
  adjacency_bits_.resize(rows_.size());
  std::vector<uint64_t> record_bits(rows_.size());
  for (NodeId n = 0; n < rows_.size(); ++n) {
    adjacency_bits_[n] = AdjacencyRecordBits(*graph_, n);
    record_bits[n] = adjacency_bits_[n] + rows_.ReadNewest(n).size_bits;
  }
  store_ = PagedStore(PageLayout(record_bits, order), buffer);
  network_store_ = nullptr;
  merged_ = true;
}

void SignatureIndex::TouchAdjacency(NodeId n) const {
  if (merged_) {
    // The adjacency list heads the combined record.
    store_.TouchRecordAt(n, 0);
    return;
  }
  if (network_store_ != nullptr) network_store_->TouchNode(n);
}

void SignatureIndex::RebuildForest() {
  forest_ = std::make_unique<SpanningForest>(graph_, objects_);
  forest_->Build();
}

uint64_t SignatureIndex::IndexBytes() const {
  return (size_stats_.compressed_bits + 7) / 8;
}

namespace {

std::string NodeObjectContext(NodeId n, uint32_t object) {
  return "node " + std::to_string(n) + ", object " + std::to_string(object);
}

}  // namespace

Status SignatureIndex::Verify() const {
  static obs::Histogram* const verify_ms =
      obs::MetricsRegistry::Global().GetHistogram("index.verify_ms");
  const obs::ScopedTimer timer(verify_ms);
  // One snapshot for the whole verification: both passes must see a single
  // generation of rows, table, and graph even if an updater is waiting.
  const ReadSnapshot snapshot(&gate_);
  const size_t num_nodes = graph_->num_nodes();
  const size_t num_objects = objects_.size();
  if (rows_.size() != num_nodes) {
    return Status::Corruption("index has " + std::to_string(rows_.size()) +
                              " rows but the graph has " +
                              std::to_string(num_nodes) + " nodes");
  }

  // Partition: finite, strictly ascending boundaries; category ids must fit
  // the uint8 every signature entry stores.
  const int num_categories = partition_.num_categories();
  if (num_categories > 256) {
    return Status::Corruption(
        "partition has " + std::to_string(num_categories) +
        " categories; category ids are 8-bit");
  }
  const std::vector<Weight>& boundaries = partition_.boundaries();
  for (size_t i = 0; i < boundaries.size(); ++i) {
    if (!std::isfinite(boundaries[i]) || boundaries[i] <= 0 ||
        (i > 0 && boundaries[i] <= boundaries[i - 1])) {
      return Status::Corruption(
          "category boundaries are not finite, positive, and strictly "
          "ascending");
    }
  }

  // Objects: in range, one per node at most.
  std::vector<char> object_here(num_nodes, 0);
  for (uint32_t o = 0; o < num_objects; ++o) {
    if (objects_[o] >= num_nodes) {
      return Status::Corruption("object " + std::to_string(o) +
                                " lives on out-of-range node " +
                                std::to_string(objects_[o]));
    }
    if (object_here[objects_[o]]++ != 0) {
      return Status::Corruption("two objects share node " +
                                std::to_string(objects_[o]));
    }
  }

  // Pass 1 — decode and resolve every row (staged, so the bulk checks run
  // on the SIMD kernels); validate categories and links; collect the link
  // matrix for the chain walk below.
  std::vector<uint8_t> links(num_nodes * num_objects, 0);
  std::vector<uint8_t> categories(num_nodes * num_objects, 0);
  const simd::KernelTable& kernels = simd::Kernels();
  RowStage stage;
  for (NodeId n = 0; n < num_nodes; ++n) {
    if (!codec_.TryDecodeRowStage(rows_.Read(n, snapshot.epoch()),
                                  num_objects, &stage)) {
      return Status::Corruption("row of node " + std::to_string(n) +
                                " does not decode");
    }
    if (!compressor_.TryResolveStage(&stage)) {
      return Status::Corruption(
          "row of node " + std::to_string(n) +
          " has a compressed entry the shared rule cannot resolve");
    }
    // Vectorized clean-row test. It is deliberately stricter than the real
    // invariants (the object's own entry need not have a valid link; links
    // may legally point below any removed slot), so a miss only routes the
    // row through the exact per-entry checks below — which also keep the
    // first-violation messages.
    const auto& adjacency = graph_->adjacency(n);
    bool adjacency_clean = true;
    for (const AdjacencyEntry& hop : adjacency) {
      if (hop.removed) {
        adjacency_clean = false;
        break;
      }
    }
    const ObjectId self = object_of_node_[n];
    const bool fast_ok =
        adjacency_clean &&
        kernels.max_u8(stage.categories(), num_objects) < num_categories &&
        kernels.max_u8(stage.links(), num_objects) < adjacency.size() &&
        (self == kInvalidObject || stage.categories()[self] == 0);
    if (!fast_ok) {
      for (uint32_t o = 0; o < num_objects; ++o) {
        const SignatureEntry entry = stage.entry(o);
        if (entry.category >= num_categories) {
          return Status::Corruption("category " +
                                    std::to_string(entry.category) +
                                    " out of partition range at " +
                                    NodeObjectContext(n, o));
        }
        if (objects_[o] == n) {
          if (entry.category != 0) {
            return Status::Corruption(
                "object's own node is not in category 0 at " +
                NodeObjectContext(n, o));
          }
        } else {
          if (entry.link >= graph_->degree(n)) {
            return Status::Corruption("link " + std::to_string(entry.link) +
                                      " beyond the adjacency list at " +
                                      NodeObjectContext(n, o));
          }
          if (graph_->adjacency(n)[entry.link].removed) {
            return Status::Corruption("link points at a removed edge at " +
                                      NodeObjectContext(n, o));
          }
        }
      }
    }
    std::memcpy(&links[static_cast<size_t>(n) * num_objects],
                stage.links(), num_objects);
    std::memcpy(&categories[static_cast<size_t>(n) * num_objects],
                stage.categories(), num_objects);
  }

  // Pass 2 — per object: follow every node's link chain. Chains must reach
  // the object without revisiting a node (tree-shaped, so within |V| steps),
  // and the distance accumulated along the chain must fall in the stored
  // category (small tolerance: chain summation order can differ from the
  // builder's Dijkstra by an ulp on non-integer weights).
  std::vector<uint8_t> state(num_nodes);  // 0 unvisited, 1 on path, 2 done
  std::vector<Weight> chain_dist(num_nodes);
  std::vector<NodeId> path;
  for (uint32_t o = 0; o < num_objects; ++o) {
    const NodeId object_node = objects_[o];
    std::fill(state.begin(), state.end(), 0);
    state[object_node] = 2;
    chain_dist[object_node] = 0;
    for (NodeId start = 0; start < num_nodes; ++start) {
      if (state[start] != 0) continue;
      path.clear();
      NodeId cur = start;
      while (state[cur] == 0) {
        state[cur] = 1;
        path.push_back(cur);
        cur = graph_->adjacency(
            cur)[links[static_cast<size_t>(cur) * num_objects + o]].to;
      }
      if (state[cur] == 1) {
        return Status::Corruption(
            "backtracking links cycle instead of reaching object " +
            std::to_string(o) + " (entered the cycle from node " +
            std::to_string(start) + ")");
      }
      for (size_t i = path.size(); i-- > 0;) {
        const NodeId u = path[i];
        const AdjacencyEntry& hop = graph_->adjacency(
            u)[links[static_cast<size_t>(u) * num_objects + o]];
        chain_dist[u] = hop.weight + chain_dist[hop.to];
        state[u] = 2;
        const int stored =
            categories[static_cast<size_t>(u) * num_objects + o];
        if (partition_.CategoryOf(chain_dist[u]) != stored) {
          const DistanceRange range = partition_.RangeOf(stored);
          const Weight eps =
              1e-9 * std::max<Weight>(1.0, std::fabs(chain_dist[u]));
          if (chain_dist[u] < range.lb - eps || chain_dist[u] >= range.ub + eps) {
            return Status::Corruption(
                "stored category " + std::to_string(stored) +
                " disagrees with the distance " +
                std::to_string(chain_dist[u]) +
                " accumulated along the link chain at " +
                NodeObjectContext(u, o));
          }
        }
      }
    }
  }

  // Hub-label tier, when attached: structural invariants plus a sampled
  // Dijkstra spot check. A stale tier is skipped — the latch already routes
  // queries around it, and post-update labels legitimately disagree with the
  // mutated graph.
  if (labels_ != nullptr && !labels_->stale()) {
    DSIG_RETURN_IF_ERROR(labels_->VerifyStructure(*graph_));
  }
  return Status::Ok();
}

size_t SignatureIndex::ReplaceRow(NodeId n, const SignatureRow& row) {
  DSIG_CHECK_LT(n, rows_.size());
  DSIG_CHECK_EQ(row.size(), objects_.size());
  const EncodedRow& old_encoded = rows_.ReadNewest(n);
  EncodedRow new_encoded = codec_.EncodeRow(row);
  // Diff the two rows in resolved form so flag-only differences (same
  // category/link, different compression decision) do not count as changes.
  // A row corrupted in memory must degrade (count every component as
  // changed), not crash the updater.
  RowStage old_row;
  RowStage new_row;
  size_t changed = row.size();
  if (codec_.TryDecodeRowStage(old_encoded, objects_.size(), &old_row) &&
      compressor_.TryResolveStage(&old_row)) {
    DSIG_CHECK(
        codec_.TryDecodeRowStage(new_encoded, objects_.size(), &new_row) &&
        compressor_.TryResolveStage(&new_row))
        << "replacement row for node " << n << " does not round-trip";
    changed = 0;
    for (size_t i = 0; i < row.size(); ++i) {
      if (old_row.categories()[i] != new_row.categories()[i] ||
          old_row.links()[i] != new_row.links()[i]) {
        ++changed;
      }
    }
  }

  row_cache_->Erase(n);
  size_stats_.compressed_bits += new_encoded.size_bits;
  size_stats_.compressed_bits -= old_encoded.size_bits;
  // Copy-on-write publish: inside an UpdateGuard the new version carries the
  // guard's publish epoch and stays invisible until the guard commits;
  // quiesced callers (tests, tools) publish at the current epoch instead.
  const uint64_t publish_epoch = gate_.ThisThreadHoldsWrite()
                                     ? gate_.current_epoch() + 1
                                     : gate_.current_epoch();
  rows_.Publish(n, std::move(new_encoded), publish_epoch);
  return changed;
}

}  // namespace dsig
