// The distance-signature index — the paper's primary contribution.
//
// One SignatureIndex bundles everything a query processor needs:
//   * the category partition (§5.1) and codec (§5.2-5.3),
//   * one encoded signature row per network node,
//   * the in-memory object-object distance table (§3.2.2),
//   * optionally the per-object spanning forest kept for updates (§5.4),
//   * optionally a paged store charging row accesses to a buffer pool,
//   * one byte-budgeted cache of decoded rows (row_cache.h): rows resolved
//     for single-component reads and rows recomputed after decode faults.
//
// Rows are read into a RowStage (row_stage.h), the only decoded row form.
// Build instances with BuildSignatureIndex (signature_builder.h); distance
// retrieval / comparison / sorting live in distance_ops.h; query processing
// in query/; maintenance in update.h.
#ifndef DSIG_CORE_SIGNATURE_INDEX_H_
#define DSIG_CORE_SIGNATURE_INDEX_H_

#include <atomic>
#include <memory>
#include <vector>

#include "core/category_partition.h"
#include "core/compression.h"
#include "core/epoch.h"
#include "core/hub_labels.h"
#include "core/object_distance_table.h"
#include "core/row_cache.h"
#include "core/row_stage.h"
#include "core/signature.h"
#include "graph/road_network.h"
#include "graph/spanning_tree.h"
#include "storage/network_store.h"
#include "storage/pager.h"
#include "util/status.h"

namespace dsig {

// Byte/bit accounting for Fig 6.4(a) and Table 1.
struct SignatureSizeStats {
  uint64_t raw_bits = 0;         // fixed-length category ids + links
  uint64_t encoded_bits = 0;     // entropy-coded ids + links, no compression
  uint64_t compressed_bits = 0;  // as stored (flags + surviving components)
  uint64_t entries = 0;
  uint64_t compressed_entries = 0;

  double EncodedRatio() const {
    return raw_bits == 0 ? 0 : static_cast<double>(encoded_bits) / raw_bits;
  }
  double CompressedRatio() const {
    return encoded_bits == 0
               ? 0
               : static_cast<double>(compressed_bits) / encoded_bits;
  }
};

class SignatureIndex {
 public:
  // Assembled by BuildSignatureIndex; not movable (internal back-pointers).
  SignatureIndex(const RoadNetwork* graph, std::vector<NodeId> objects,
                 CategoryPartition partition, SignatureCodec codec,
                 std::vector<EncodedRow> rows, ObjectDistanceTable table,
                 SignatureSizeStats size_stats,
                 std::unique_ptr<SpanningForest> forest);

  SignatureIndex(const SignatureIndex&) = delete;
  SignatureIndex& operator=(const SignatureIndex&) = delete;

  const RoadNetwork& graph() const { return *graph_; }
  const CategoryPartition& partition() const { return partition_; }
  const SignatureCodec& codec() const { return codec_; }
  const ObjectDistanceTable& object_table() const { return table_; }
  const RowCompressor& compressor() const { return compressor_; }

  size_t num_objects() const { return objects_.size(); }
  const std::vector<NodeId>& objects() const { return objects_; }
  NodeId object_node(uint32_t object_index) const {
    return objects_[object_index];
  }
  // Object living on node `n`, or kInvalidObject.
  ObjectId object_at(NodeId n) const { return object_of_node_[n]; }

  // --- Concurrency ---------------------------------------------------------

  // Gate coordinating concurrent queries with the single live updater. Query
  // entry points hold a ReadSnapshot on it for their whole run (epoch.h);
  // SignatureUpdater holds an UpdateGuard while it rewrites rows in place.
  // Every row read below takes its own (re-entrant, cheap) snapshot, so
  // plain callers stay correct too — an outer snapshot just widens the
  // atomicity to the whole query.
  EpochGate* epoch_gate() const { return &gate_; }

  // Always 0: rows are overwritten in place while the updater holds the gate
  // exclusively, so no superseded row outlives an update. Kept because the
  // serving benchmark reports it as mem.retired_bytes.
  uint64_t retired_row_bytes() const { return 0; }

  // --- Row access (all charge pages when storage is attached) -------------

  // Full signature of `n`, decoded straight into `stage`'s category/link/flag
  // lanes (core/row_stage.h) with every compressed component resolved in
  // place, so query loops hand the lanes to the SIMD kernels without a
  // transpose. Charges every page the row spans. A row that does not decode
  // or resolve degrades to the recomputed fallback row (see FallbackRow).
  // Does not consult the row cache for healthy rows.
  void ReadRowStaged(NodeId n, RowStage* stage) const;

  // Single component, resolved; charges only the page holding it. A
  // compressed component resolves against the whole row, which is then kept
  // in the row cache.
  SignatureEntry ReadEntry(NodeId n, uint32_t object_index) const;

  // --- Storage -------------------------------------------------------------

  // Separate storage schema (paper §3.1, Fig 3.1): signature rows live in
  // their own file, laid out in `order`; backtracking charges adjacency
  // pages to `network` (may be null) and signature pages here.
  void AttachStorage(BufferManager* buffer, const NetworkStore* network,
                     const std::vector<NodeId>& order);

  // Merged storage schema (paper §3.1's preferred option when signatures
  // are usually accessed together with the adjacency list): each node's
  // record holds its adjacency list followed by its signature, so a
  // backtracking step usually costs a single page.
  void AttachMergedStorage(BufferManager* buffer,
                           const std::vector<NodeId>& order);

  // Charges the page(s) for reading node `n`'s adjacency list under the
  // current schema. Used by the retrieval cursor.
  void TouchAdjacency(NodeId n) const;

  const NetworkStore* network_store() const { return network_store_; }
  bool merged_storage() const { return merged_; }

  // --- Decoded-row cache ---------------------------------------------------

  // Replaces the decoded-row cache (dropping its contents). byte_budget = 0
  // disables caching; see row_cache.h. Not thread-safe — configure before
  // serving queries.
  void ConfigureRowCache(const RowCache::Options& options);
  const RowCache& row_cache() const { return *row_cache_; }

  // Payload size of the index as stored (compressed form), in bytes.
  uint64_t IndexBytes() const;
  const SignatureSizeStats& size_stats() const { return size_stats_; }

  // --- Exact-distance hub-label tier (optional; see core/hub_labels.h) -----

  // The attached labels, or null. The pointer is stable for the index's
  // lifetime once set; the instance itself is immutable apart from its
  // sticky stale latch, so queries read it without extra locking.
  const HubLabels* hub_labels() const { return labels_.get(); }

  // Attaches (or replaces) the label tier. A fresh instance clears the
  // effect of any earlier InvalidateHubLabels. Quiesced callers only
  // (build/load time, or inside an UpdateGuard).
  void set_hub_labels(std::shared_ptr<HubLabels> labels) {
    labels_ = std::move(labels);
  }

  // Trips the sticky stale latch: the planner stops routing exact distances
  // through the labels until a rebuild installs a fresh instance. Called by
  // SignatureUpdater on every WAL-applied network change.
  void InvalidateHubLabels() {
    if (labels_ != nullptr) labels_->MarkStale();
  }

  // Drops every recomputed fallback row (see FallbackRow): they derive from
  // the graph, so any network change can make them wrong, even one that
  // rewrites no signature row. Called by SignatureUpdater on every network
  // change, next to InvalidateHubLabels. Clears the whole row cache, but
  // only while a fallback row may be in it, so a healthy index keeps its
  // cached rows. Exclusive callers only (inside an UpdateGuard).
  void DropFallbackRows();

  // --- Integrity -----------------------------------------------------------

  // Deep verification of the index's structural invariants, for indexes from
  // untrusted sources (a loaded file, a long-running mutated instance):
  //   * every row decodes and every compressed entry resolves via the shared
  //     decoder rule;
  //   * categories lie inside the CategoryPartition, links name live
  //     adjacency slots;
  //   * every backtracking link chain terminates at its object without
  //     cycling (so within |V| steps), and the distance accumulated along
  //     the chain falls in the stored category;
  //   * when a hub-label tier is attached, its structural invariants and a
  //     sampled Dijkstra spot check (HubLabels::VerifyStructure).
  // Returns the first violation found. O(|V|·|objects|) time and memory;
  // charges no pages and no op counters. LoadSignatureIndex runs this when
  // asked (LoadOptions::verify), and `dsig_tool verify` exposes it on the
  // command line.
  Status Verify() const;

  // --- Maintenance / test hooks -------------------------------------------

  // Direct mutable access to the stored encoded row — the corruption-test
  // seam (fault-injection harnesses flip bits in rows_[n].bytes). Drops the
  // node's cached row so the next read re-decodes.
  EncodedRow& mutable_encoded_row(NodeId n);

  // --- Maintenance hooks (used by SignatureUpdater) ------------------------

  // Forest retained for updates; null when built with keep_forest = false.
  SpanningForest* mutable_forest() { return forest_.get(); }

  // (Re)builds the spanning forest — e.g. after loading a serialized index,
  // which does not persist it. One Dijkstra per object.
  void RebuildForest();
  const SpanningForest* forest() const { return forest_.get(); }
  ObjectDistanceTable* mutable_object_table() { return &table_; }

  // Replaces node `n`'s row (already compressed by the caller), returning
  // how many resolved components differ from the previous row (every one,
  // when the previous row no longer decodes or resolves). Invalidates
  // the page layout until AttachStorage is called again. Overwrites the row
  // in place, so the caller holds an UpdateGuard or runs with no concurrent
  // reader.
  size_t ReplaceRow(NodeId n, const SignatureRow& row);

  // Stored row of `n`, read without a snapshot: for persistence, stats,
  // cross-node analysis and the updater itself, which run on the writer's
  // thread or while no update is in flight.
  const EncodedRow& encoded_row(NodeId n) const {
    DSIG_CHECK_LT(n, rows_.size());
    return rows_[n];
  }

 private:
  // Decode-failure degradation: a row whose bits no longer decode or
  // resolve (in-memory corruption that slipped past load-time checks) is
  // recomputed from the graph by a Dijkstra bounded to the farthest object,
  // kept in the row cache under its byte budget, and counted in
  // OpCounters::decode_fallbacks. Queries stay oracle-correct — any
  // shortest-path first hop is a valid backtracking link.
  std::shared_ptr<const RowStage> FallbackRow(NodeId n) const;
  void ComputeFallbackRow(NodeId n, RowStage* row) const;

  const RoadNetwork* graph_;
  std::vector<NodeId> objects_;
  std::vector<ObjectId> object_of_node_;
  CategoryPartition partition_;
  SignatureCodec codec_;
  // One encoded row per node, rewritten in place by ReplaceRow; the gate
  // keeps readers out while that happens (epoch.h).
  std::vector<EncodedRow> rows_;
  mutable EpochGate gate_;
  ObjectDistanceTable table_;
  RowCompressor compressor_;
  SignatureSizeStats size_stats_;
  std::unique_ptr<SpanningForest> forest_;
  // Optional exact-distance hub-label tier (null when absent). Shared so a
  // saver/bench can hold the labels across an index swap.
  std::shared_ptr<HubLabels> labels_;

  PagedStore store_;
  const NetworkStore* network_store_ = nullptr;
  // CPU cache of resolved rows: rows a single-component read resolved
  // (resolution needs the whole row) and fallback rows. Sharded LRU with a
  // byte budget and incremental eviction; thread-safe, so RunBatch workers
  // share it. Never null.
  mutable std::unique_ptr<RowCache> row_cache_;
  // Set when a fallback row enters row_cache_; DropFallbackRows clears the
  // cache only while it is set.
  mutable std::atomic<bool> fallback_cached_{false};
  // Merged schema: row bits start after the adjacency record inside each
  // node's combined record.
  bool merged_ = false;
  std::vector<uint64_t> adjacency_bits_;
};

}  // namespace dsig

#endif  // DSIG_CORE_SIGNATURE_INDEX_H_
