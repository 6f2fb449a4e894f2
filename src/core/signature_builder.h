// Signature-index construction (paper §5.2).
//
// Builds the shortest-path spanning tree of every object (not of every node:
// only object-rooted trees compute distances the signatures need), derives
// the category partition, fills and compresses each node's row, picks the
// category code, and bit-packs everything.
//
// The pipeline is parallel and single-pass: the per-object Dijkstras, the
// row-building + category-frequency sweep, and the compress + encode sweep
// all run as data-parallel loops on a ThreadPool, and each node's row is
// built exactly ONCE (it used to be built twice — once for frequencies, once
// for encoding). Per-chunk partial results merge with commutative operations
// only (integer sums, max), so the built index is byte-identical at every
// thread count — enforced by tests/parallel_build_test.cc.
#ifndef DSIG_CORE_SIGNATURE_BUILDER_H_
#define DSIG_CORE_SIGNATURE_BUILDER_H_

#include <memory>
#include <vector>

#include "core/encoding.h"
#include "core/signature_index.h"

namespace dsig {

struct SignatureBuildOptions {
  // Exponential partition parameters (§5.1): first boundary T and growth c.
  // When `optimal_partition` is set they are derived instead as c = e,
  // T = sqrt(spreading_bound / e).
  double t = 10.0;
  double c = 2.718281828459045;
  bool optimal_partition = false;
  Weight spreading_bound = 1000.0;

  CategoryCodeKind code_kind = CategoryCodeKind::kReverseZeroPadding;
  bool compress = true;
  // Retain the spanning forest (needed by SignatureUpdater). Costs 5 bytes
  // per (object, node) pair while every distance is a whole number below
  // 2^32 - 1, 9 bytes otherwise (graph/spanning_tree.h). The build holds
  // the same forest transiently either way.
  bool keep_forest = true;

  // Worker threads for the parallel phases: 0 = the process-wide pool,
  // N > 0 = a private pool of N threads for this build (what the benches'
  // --threads sweep and the determinism test use). The result is
  // byte-identical either way.
  size_t num_threads = 0;
};

// `objects` are dataset node ids (distinct). The graph must be connected and
// outlive the returned index.
std::unique_ptr<SignatureIndex> BuildSignatureIndex(
    const RoadNetwork& graph, std::vector<NodeId> objects,
    const SignatureBuildOptions& options);

// Builds node `n`'s uncompressed row from a finished forest — shared by the
// builder and the updater.
SignatureRow BuildRowFromForest(const SpanningForest& forest,
                                const CategoryPartition& partition, NodeId n);

}  // namespace dsig

#endif  // DSIG_CORE_SIGNATURE_BUILDER_H_
