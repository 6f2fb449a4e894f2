#include "core/signature_builder.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <utility>

#include "util/thread_pool.h"

namespace dsig {

namespace {

// Nodes per chunk in the row sweeps: coarse enough that the chunk-claim
// mutex and the merge locks are noise, fine enough to steal-balance.
constexpr size_t kRowSweepGrain = 64;

}  // namespace

SignatureRow BuildRowFromForest(const SpanningForest& forest,
                                const CategoryPartition& partition, NodeId n) {
  SignatureRow row(forest.num_objects());
  for (uint32_t o = 0; o < forest.num_objects(); ++o) {
    const Weight d = forest.dist(o, n);
    DSIG_CHECK_LT(d, kInfiniteWeight)
        << "node " << n << " cannot reach object " << o
        << "; signatures require a connected network";
    SignatureEntry& entry = row[o];
    entry.category = static_cast<uint8_t>(partition.CategoryOf(d));
    // n's parent in the tree rooted at the object is the next hop from n
    // toward it; the forest stores its slot in n's adjacency list, which is
    // the link (Fig 3.1). The object lives at its own node: no next hop.
    entry.link = forest.objects()[o] == n ? 0 : forest.parent_slot(o, n);
  }
  return row;
}

std::unique_ptr<SignatureIndex> BuildSignatureIndex(
    const RoadNetwork& graph, std::vector<NodeId> objects,
    const SignatureBuildOptions& options) {
  DSIG_CHECK(!objects.empty());
  std::sort(objects.begin(), objects.end());
  DSIG_CHECK(std::adjacent_find(objects.begin(), objects.end()) ==
             objects.end())
      << "duplicate object nodes";

  // One pool drives every parallel phase. All cross-chunk merges below use
  // commutative operations only (sums, max), so the built index is
  // byte-identical at every thread count.
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* pool = &ThreadPool::Global();
  if (options.num_threads > 0) {
    owned_pool = std::make_unique<ThreadPool>(options.num_threads);
    pool = owned_pool.get();
  }

  auto forest = std::make_unique<SpanningForest>(&graph, objects);
  forest->Build(pool);

  // Partition the spectrum. max_distance = farthest (object, node) pair so
  // the finite boundaries cover the whole observed spectrum. Per-object max
  // scans are independent; max merges commutatively.
  Weight max_distance = 1;
  std::mutex merge_mu;
  pool->ParallelForChunks(
      objects.size(), 1, [&](size_t obj_begin, size_t obj_end) {
        Weight local_max = 1;
        for (size_t o = obj_begin; o < obj_end; ++o) {
          for (NodeId n = 0; n < graph.num_nodes(); ++n) {
            const Weight d = forest->dist(static_cast<uint32_t>(o), n);
            DSIG_CHECK_LT(d, kInfiniteWeight)
                << "disconnected network: object " << o
                << " cannot reach node " << n;
            local_max = std::max(local_max, d);
          }
        }
        std::lock_guard<std::mutex> lock(merge_mu);
        max_distance = std::max(max_distance, local_max);
      });
  const CategoryPartition partition =
      options.optimal_partition
          ? CategoryPartition::Optimal(options.spreading_bound, max_distance)
          : CategoryPartition::Exponential(options.t, options.c,
                                           max_distance);
  const int m = partition.num_categories();
  DSIG_CHECK_LE(m, 255) << "category id must fit 8 bits";

  // Object-object distances; last-category pairs keep only a far marker.
  ObjectDistanceTable table(objects.size());
  for (uint32_t u = 0; u < objects.size(); ++u) {
    for (uint32_t v = u + 1; v < objects.size(); ++v) {
      const Weight d = forest->dist(u, objects[v]);
      if (partition.CategoryOf(d) == m - 1) {
        table.MarkFar(u, v);
      } else {
        table.Set(u, v, d);
      }
    }
  }

  const RowCompressor compressor(&partition, &table);

  // Sweep phase A: build every node's row ONCE, accumulating the category
  // frequencies the entropy code is chosen against (the pre-compression
  // distribution, as in §5.2). Rows are kept for phase B — the old pipeline
  // rebuilt each row from the forest a second time to encode it. Per-chunk
  // histograms merge by integer addition, so the totals are exact and
  // order-independent.
  const size_t num_nodes = graph.num_nodes();
  std::vector<SignatureRow> built_rows(num_nodes);
  std::vector<uint64_t> frequencies(static_cast<size_t>(m), 0);
  pool->ParallelForChunks(
      num_nodes, kRowSweepGrain, [&](size_t begin, size_t end) {
        std::vector<uint64_t> local_freq(static_cast<size_t>(m), 0);
        for (size_t n = begin; n < end; ++n) {
          built_rows[n] =
              BuildRowFromForest(*forest, partition, static_cast<NodeId>(n));
          AccumulateCategoryFrequencies(built_rows[n], &local_freq);
        }
        std::lock_guard<std::mutex> lock(merge_mu);
        for (size_t cat = 0; cat < local_freq.size(); ++cat) {
          frequencies[cat] += local_freq[cat];
        }
      });

  // Link width: one slot index per adjacency entry, plus one spare bit, so
  // edge insertions can grow every node to at least twice the build's
  // largest degree. The width is fixed for the index's lifetime: nothing
  // re-encodes the rows wider, so DurableUpdater refuses an AddEdge whose
  // endpoint already holds all 1 << link_bits slots a link can address.
  int link_bits = 1;
  while ((1u << link_bits) < graph.max_degree()) ++link_bits;
  link_bits += 1;
  DSIG_CHECK_LE(link_bits, 8);

  SignatureCodec codec(BuildCategoryCode(options.code_kind, m, frequencies),
                       link_bits, options.compress);
  const HuffmanCode entropy_code =
      options.code_kind == CategoryCodeKind::kFixed
          ? HuffmanCode::ReverseZeroPadding(m)
          : BuildCategoryCode(options.code_kind, m, frequencies);

  // The raw/entropy-coded totals of Table 1 follow directly from the phase-A
  // category histogram (phase A sees every entry pre-compression), so the
  // encode sweep below no longer re-walks entries for size accounting.
  SignatureSizeStats stats;
  const int fixed_bits = partition.fixed_code_bits();
  for (size_t cat = 0; cat < frequencies.size(); ++cat) {
    stats.entries += frequencies[cat];
    stats.encoded_bits +=
        frequencies[cat] *
        static_cast<uint64_t>(entropy_code.length(static_cast<int>(cat)));
  }
  stats.raw_bits =
      stats.entries * static_cast<uint64_t>(fixed_bits + link_bits);
  stats.encoded_bits += stats.entries * static_cast<uint64_t>(link_bits);

  // Sweep phase B: compress + encode the rows built in phase A. Each row
  // encodes independently into its own slot through the word-level codec
  // kernels (EncodeRow pre-sizes its buffer, so each row costs one
  // allocation); per-chunk stats merge by addition. Rows are consumed
  // (moved out) as they encode, so peak memory falls as the sweep
  // progresses.
  std::vector<EncodedRow> rows(num_nodes);
  pool->ParallelForChunks(
      num_nodes, kRowSweepGrain, [&](size_t begin, size_t end) {
        uint64_t local_compressed_bits = 0;
        uint64_t local_compressed_entries = 0;
        for (size_t n = begin; n < end; ++n) {
          SignatureRow row = std::move(built_rows[n]);
          if (options.compress) {
            local_compressed_entries += compressor.Compress(&row);
          }
          rows[n] = codec.EncodeRow(row);
          local_compressed_bits += rows[n].size_bits;
        }
        std::lock_guard<std::mutex> lock(merge_mu);
        stats.compressed_bits += local_compressed_bits;
        stats.compressed_entries += local_compressed_entries;
      });

  return std::make_unique<SignatureIndex>(
      &graph, std::move(objects), partition, std::move(codec),
      std::move(rows), std::move(table), stats,
      options.keep_forest ? std::move(forest) : nullptr);
}

}  // namespace dsig
