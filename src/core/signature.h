// Distance-signature rows and their bit-level encoding (paper §3.1, §5.2-5.3).
//
// A node's signature is a sequence of components, one per dataset object (in
// a fixed global object order): the object's distance *category* plus a
// *backtracking link* — the position, in the node's adjacency list, of the
// next hop on the shortest path toward the object. Components may instead be
// *compressed* to a single flag bit (§5.3), in which case both category and
// link are reconstructed from the closest link-sharing object (see
// compression.h).
//
// Encoded layout per component:
//   [flag (1 bit, only when the codec has compression flags)]
//   [category code (variable, Huffman/reverse-zero-padding/fixed)]
//   [link (fixed link_bits)]
// Compressed components consist of the flag bit alone.
#ifndef DSIG_CORE_SIGNATURE_H_
#define DSIG_CORE_SIGNATURE_H_

#include <cstdint>
#include <vector>

#include "util/huffman.h"

namespace dsig {

class RowStage;

// Sentinels for entries whose category/link await decompression.
inline constexpr uint8_t kUnresolvedCategory = 0xFF;
inline constexpr uint8_t kUnresolvedLink = 0xFF;

struct SignatureEntry {
  uint8_t category = 0;  // distance category id
  uint8_t link = 0;      // index into the node's adjacency list
  bool compressed = false;

  bool IsResolved() const { return !compressed; }
};

inline bool operator==(const SignatureEntry& a, const SignatureEntry& b) {
  return a.category == b.category && a.link == b.link &&
         a.compressed == b.compressed;
}

// One node's signature row, indexed by object index: the write-side form the
// builder, the compressor and EncodeRow work on. Reads decode into a
// RowStage instead (row_stage.h).
using SignatureRow = std::vector<SignatureEntry>;

// Bit-packed row plus checkpoints for random component access.
struct EncodedRow {
  std::vector<uint8_t> bytes;
  uint32_t size_bits = 0;
  // checkpoints[k] = bit offset where component k * kCheckpointInterval
  // starts; an in-memory acceleration, not counted in index size.
  std::vector<uint32_t> checkpoints;
};

class SignatureCodec {
 public:
  static constexpr uint32_t kCheckpointInterval = 32;

  // `category_code` encodes category ids; `link_bits` is the fixed width of
  // a backtracking link; `has_flags` prefixes every component with a
  // compression flag bit.
  SignatureCodec(HuffmanCode category_code, int link_bits, bool has_flags);

  int link_bits() const { return link_bits_; }
  bool has_flags() const { return has_flags_; }
  const HuffmanCode& category_code() const { return category_code_; }

  EncodedRow EncodeRow(const SignatureRow& row) const;

  // Decodes a row straight into the stage's category / link / flag lanes
  // (core/row_stage.h), so the SIMD query kernels can scan them
  // contiguously. Compressed components are staged as kUnresolvedCategory /
  // kUnresolvedLink with flag 1. Never aborts, so rows from untrusted
  // sources (corrupt files, bit rot) are safe: false when the bits end
  // mid-component, follow no category prefix, decode a link that cannot be
  // an adjacency slot (> 255), or leave trailing garbage.
  // `expected_entries` is the object count the row must decode to.
  bool TryDecodeRowStage(const EncodedRow& encoded, size_t expected_entries,
                         RowStage* stage) const;

  // Decodes component `index` only, scanning from the nearest checkpoint;
  // same failure conditions as TryDecodeRowStage plus a missing or
  // out-of-range checkpoint. `bit_offset` (if non-null) receives the
  // component's start offset — the address used to charge the page holding
  // this component.
  bool TryDecodeEntry(const EncodedRow& encoded, uint32_t index,
                      SignatureEntry* entry, uint64_t* bit_offset) const;

 private:
  HuffmanCode category_code_;
  int link_bits_;
  bool has_flags_;
};

}  // namespace dsig

#endif  // DSIG_CORE_SIGNATURE_H_
