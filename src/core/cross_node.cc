#include "core/cross_node.h"

#include "core/row_stage.h"
#include "util/logging.h"

namespace dsig {

CrossNodeStats AnalyzeCrossNodeCompression(const SignatureIndex& index,
                                           const std::vector<NodeId>& order,
                                           int max_chain) {
  DSIG_CHECK_GE(max_chain, 1);
  DSIG_CHECK_EQ(order.size(), index.graph().num_nodes());
  const SignatureCodec& codec = index.codec();
  const HuffmanCode& code = codec.category_code();

  CrossNodeStats stats;
  // Two stages, alternating: the row just analyzed is the next reference.
  RowStage stages[2];
  int current = 0;
  int chain_depth = 0;
  for (const NodeId n : order) {
    const uint64_t stored_bits = index.encoded_row(n).size_bits;
    stats.within_row_bits += stored_bits;

    // Deltas compare *resolved* categories: the delta form replaces the
    // within-row compression, it does not stack on top of it.
    RowStage& row = stages[current];
    const RowStage& reference = stages[current ^ 1];
    DSIG_CHECK(codec.TryDecodeRowStage(index.encoded_row(n),
                                       index.num_objects(), &row) &&
               index.compressor().TryResolveStage(&row))
        << "row of node " << n << " does not decode and resolve";

    uint64_t delta_bits = 0;
    uint64_t same = 0;
    const bool can_delta = !reference.empty() && chain_depth < max_chain;
    if (can_delta) {
      for (uint32_t o = 0; o < row.size(); ++o) {
        delta_bits += 1;  // same-category flag
        if (row.categories()[o] == reference.categories()[o]) {
          ++same;
        } else {
          delta_bits +=
              static_cast<uint64_t>(code.length(row.categories()[o]));
        }
        delta_bits += static_cast<uint64_t>(codec.link_bits());
      }
    }

    // 1 header bit selects the form.
    if (can_delta && delta_bits + 1 < stored_bits + 1) {
      stats.cross_node_bits += delta_bits + 1;
      ++stats.delta_rows;
      stats.same_category_entries += same;
      stats.delta_entries += row.size();
      ++chain_depth;
    } else {
      stats.cross_node_bits += stored_bits + 1;
      chain_depth = 0;
    }
    current ^= 1;
  }
  return stats;
}

}  // namespace dsig
