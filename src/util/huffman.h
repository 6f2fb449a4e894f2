// Generic Huffman coding.
//
// The paper's "reverse zero padding" category code (§5.2) is a special case
// of a Huffman code; this module provides the general construction so tests
// and benches can verify the optimality claim of Theorem 5.1 (reverse zero
// padding matches the Huffman average code length whenever c > 3/2) and so
// the index can fall back to a true Huffman code for category distributions
// that violate the theorem's premise.
#ifndef DSIG_UTIL_HUFFMAN_H_
#define DSIG_UTIL_HUFFMAN_H_

#include <cstdint>
#include <vector>

#include "util/bitstream.h"

namespace dsig {

// A fully built prefix code over symbols 0..num_symbols-1.
class HuffmanCode {
 public:
  // Builds an optimal prefix code for the given symbol frequencies.
  // Zero-frequency symbols still receive a (long) code so that every symbol
  // remains encodable. `frequencies` must be non-empty.
  static HuffmanCode FromFrequencies(const std::vector<uint64_t>& frequencies);

  // Builds the trivial fixed-length binary code of ceil(log2(num_symbols))
  // bits per symbol (at least 1) — the "raw" signature encoding the paper
  // compares against.
  static HuffmanCode FixedLength(int num_symbols);

  // Builds the paper's reverse-zero-padding code over `num_symbols`
  // categories: the last category is "1", each earlier category prepends a
  // "0" (so category i has length num_symbols - i, category 0 shares length
  // num_symbols - 1 with category 1 by dropping the redundant final bit —
  // exactly the code produced by Huffman's algorithm on a distribution where
  // each category outweighs the sum of all earlier ones).
  static HuffmanCode ReverseZeroPadding(int num_symbols);

  // Reconstructs a code from its parts (e.g. deserialization). The parts
  // must form a prefix code; violations are fatal.
  static HuffmanCode FromParts(std::vector<int> lengths,
                               std::vector<uint64_t> codes);

  // Validation gate for untrusted parts (e.g. a possibly-corrupt index
  // file): true iff FromParts would accept them — non-empty, matching sizes,
  // every length in [1, 64], no code bits beyond its length, and prefix-free.
  static bool PartsAreValid(const std::vector<int>& lengths,
                            const std::vector<uint64_t>& codes);

  int num_symbols() const { return static_cast<int>(lengths_.size()); }

  // Code length, in bits, of `symbol`.
  int length(int symbol) const { return lengths_[symbol]; }

  // Code bits of `symbol`, emitted LSB-first.
  uint64_t code(int symbol) const { return codes_[symbol]; }

  // Expected code length under the given frequency distribution.
  double AverageLength(const std::vector<uint64_t>& frequencies) const;

  void Encode(int symbol, BitWriter* writer) const;

  // Decodes one symbol without aborting: false when the stream ends
  // mid-code or the bits follow no symbol's prefix; the reader position is
  // unspecified afterwards. Codes of up to kDecodeTableBits bits resolve in
  // a single table lookup; longer codes fall back to a unary word-scan (for
  // reverse-zero-padding-shaped codes) or the bit-at-a-time trie.
  bool TryDecode(BitReader* reader, int* symbol) const {
    if (!table_.empty()) {
      const DecodeSlot slot = table_[reader->PeekBits(kDecodeTableBits)];
      if (slot.length != 0) {
        // PeekBits zero-pads past the end, so the matched code may extend
        // beyond the stream: that is a truncated code, not a decode.
        if (reader->position() + slot.length > reader->size_bits()) {
          return false;
        }
        reader->Skip(slot.length);
        *symbol = slot.symbol;
        return true;
      }
    }
    return DecodeLong(reader, symbol);
  }

  // Width of the prefix decode-table window: every code of at most this many
  // bits decodes in one table hit. Reverse-zero-padding codes over the
  // paper's typical 7-12 categories fit entirely.
  static constexpr int kDecodeTableBits = 11;

  // Window-level decode for callers that batch several fields into one
  // peeked word (see SignatureCodec): decodes a symbol from the low bits of
  // `window` (LSB-first stream bits, zero-padded past the stream's end) and
  // returns its code length, or 0 when the code is longer than the table
  // window (or the table is absent) and the caller must fall back to
  // TryDecode(). The caller is responsible for checking that the
  // returned length does not run past the end of its stream.
  int DecodeWindow(uint64_t window, int* symbol) const {
    if (table_.empty()) return 0;
    const DecodeSlot slot =
        table_[window & ((uint64_t{1} << kDecodeTableBits) - 1)];
    *symbol = slot.symbol;
    return slot.length;
  }

 private:
  HuffmanCode(std::vector<int> lengths, std::vector<uint64_t> codes);

  // One slot per kDecodeTableBits-bit window. length == 0 marks a window
  // whose code is longer than the table covers (fall back to trie/unary).
  struct DecodeSlot {
    uint16_t symbol;
    uint8_t length;
  };

  // Decoding walks a flat binary trie; nodes_[i] = {child0, child1} or a
  // leaf marker encoding (-1 - symbol).
  void BuildDecodeTrie();
  // Fills table_ (when the alphabet fits uint16 symbols) and detects the
  // reverse-zero-padding shape for the long-code unary fast path.
  void BuildDecodeTable();

  // TryDecode's slow path for codes longer than the table window: trie
  // walk, or a word-level zero-scan when rzp_shaped_.
  bool DecodeLong(BitReader* reader, int* symbol) const;

  std::vector<int> lengths_;
  std::vector<uint64_t> codes_;  // bits emitted LSB-first
  std::vector<std::pair<int32_t, int32_t>> trie_;
  std::vector<DecodeSlot> table_;
  bool rzp_shaped_ = false;
};

}  // namespace dsig

#endif  // DSIG_UTIL_HUFFMAN_H_
