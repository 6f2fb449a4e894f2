#include "util/huffman.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>

#include "util/logging.h"

namespace dsig {
namespace {

struct TreeNode {
  uint64_t weight = 0;
  int left = -1;   // index into node pool, -1 for leaf
  int right = -1;  // index into node pool, -1 for leaf
  int symbol = -1;
};

}  // namespace

HuffmanCode::HuffmanCode(std::vector<int> lengths, std::vector<uint64_t> codes)
    : lengths_(std::move(lengths)), codes_(std::move(codes)) {
  BuildDecodeTrie();
  BuildDecodeTable();
}

HuffmanCode HuffmanCode::FromFrequencies(
    const std::vector<uint64_t>& frequencies) {
  DSIG_CHECK(!frequencies.empty());
  const int n = static_cast<int>(frequencies.size());
  if (n == 1) {
    // Degenerate alphabet: one symbol, one-bit code so the stream is
    // self-delimiting.
    return HuffmanCode({1}, {0});
  }

  std::vector<TreeNode> pool;
  pool.reserve(static_cast<size_t>(2 * n));
  // (weight, node index); ties broken by node index for determinism.
  using Entry = std::pair<uint64_t, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  for (int s = 0; s < n; ++s) {
    // Zero-frequency symbols get weight 1 so they stay encodable without
    // perturbing the shape for realistic inputs.
    pool.push_back({std::max<uint64_t>(frequencies[s], 1), -1, -1, s});
    heap.push({pool.back().weight, s});
  }
  while (heap.size() > 1) {
    const Entry a = heap.top();
    heap.pop();
    const Entry b = heap.top();
    heap.pop();
    pool.push_back({a.first + b.first, a.second, b.second, -1});
    heap.push({pool.back().weight, static_cast<int>(pool.size()) - 1});
  }

  std::vector<int> lengths(static_cast<size_t>(n), 0);
  std::vector<uint64_t> codes(static_cast<size_t>(n), 0);
  // Iterative DFS assigning codes; bit k of the code is the k-th branch taken
  // from the root (LSB-first to match BitWriter).
  struct Frame {
    int node;
    uint64_t code;
    int depth;
  };
  std::vector<Frame> stack = {{heap.top().second, 0, 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const TreeNode& node = pool[static_cast<size_t>(f.node)];
    if (node.symbol >= 0) {
      DSIG_CHECK_LE(f.depth, 64);
      lengths[static_cast<size_t>(node.symbol)] = f.depth;
      codes[static_cast<size_t>(node.symbol)] = f.code;
      continue;
    }
    stack.push_back({node.left, f.code, f.depth + 1});
    stack.push_back(
        {node.right, f.code | (uint64_t{1} << f.depth), f.depth + 1});
  }
  return HuffmanCode(std::move(lengths), std::move(codes));
}

HuffmanCode HuffmanCode::FromParts(std::vector<int> lengths,
                                   std::vector<uint64_t> codes) {
  DSIG_CHECK_EQ(lengths.size(), codes.size());
  DSIG_CHECK(!lengths.empty());
  return HuffmanCode(std::move(lengths), std::move(codes));
}

bool HuffmanCode::PartsAreValid(const std::vector<int>& lengths,
                                const std::vector<uint64_t>& codes) {
  if (lengths.empty() || lengths.size() != codes.size()) return false;
  // Re-run the trie construction with failure returns in place of the
  // CHECKs: a leaf landing on an interior node (or vice versa) means two
  // codes where one prefixes the other.
  std::vector<std::pair<int32_t, int32_t>> trie(1, {0, 0});
  for (size_t s = 0; s < lengths.size(); ++s) {
    const int len = lengths[s];
    if (len < 1 || len > 64) return false;
    const uint64_t code = codes[s];
    if (len < 64 && (code >> len) != 0) return false;
    int32_t node = 0;
    for (int i = 0; i < len; ++i) {
      const bool bit = (code >> i) & 1;
      // Take the slot by value: push_back below may reallocate.
      int32_t slot = bit ? trie[static_cast<size_t>(node)].second
                         : trie[static_cast<size_t>(node)].first;
      if (i + 1 == len) {
        if (slot != 0) return false;
        slot = -1 - static_cast<int32_t>(s);
      } else if (slot == 0) {
        trie.push_back({0, 0});
        slot = static_cast<int32_t>(trie.size()) - 1;
      } else if (slot < 0) {
        return false;  // walking through another symbol's leaf
      }
      (bit ? trie[static_cast<size_t>(node)].second
           : trie[static_cast<size_t>(node)].first) = slot;
      if (i + 1 < len) node = slot;
    }
  }
  return true;
}

HuffmanCode HuffmanCode::FixedLength(int num_symbols) {
  DSIG_CHECK_GT(num_symbols, 0);
  int bits = 1;
  while ((1 << bits) < num_symbols) ++bits;
  DSIG_CHECK_LE(bits, 32);
  std::vector<int> lengths(static_cast<size_t>(num_symbols), bits);
  std::vector<uint64_t> codes(static_cast<size_t>(num_symbols));
  for (int s = 0; s < num_symbols; ++s) {
    // Emit the symbol MSB-first so distinct symbols stay prefix-free even
    // when num_symbols is not a power of two.
    uint64_t code = 0;
    for (int i = 0; i < bits; ++i) {
      if ((s >> (bits - 1 - i)) & 1) code |= uint64_t{1} << i;
    }
    codes[static_cast<size_t>(s)] = code;
  }
  return HuffmanCode(std::move(lengths), std::move(codes));
}

HuffmanCode HuffmanCode::ReverseZeroPadding(int num_symbols) {
  DSIG_CHECK_GT(num_symbols, 0);
  DSIG_CHECK_LE(num_symbols, 64);
  const int m = num_symbols;
  if (m == 1) return HuffmanCode({1}, {0});
  std::vector<int> lengths(static_cast<size_t>(m));
  std::vector<uint64_t> codes(static_cast<size_t>(m));
  // Category m-1: "1". Category i (0 < i < m-1): m-1-i zeros then a one.
  // Category 0 completes the code space: m-1 zeros, no terminating one.
  for (int s = m - 1; s >= 1; --s) {
    const int zeros = m - 1 - s;
    lengths[static_cast<size_t>(s)] = zeros + 1;
    codes[static_cast<size_t>(s)] = uint64_t{1} << zeros;  // zeros then a 1
  }
  lengths[0] = m - 1;
  codes[0] = 0;
  return HuffmanCode(std::move(lengths), std::move(codes));
}

double HuffmanCode::AverageLength(
    const std::vector<uint64_t>& frequencies) const {
  DSIG_CHECK_EQ(frequencies.size(), lengths_.size());
  uint64_t total = 0;
  double weighted = 0;
  for (size_t s = 0; s < frequencies.size(); ++s) {
    total += frequencies[s];
    weighted += static_cast<double>(frequencies[s]) * lengths_[s];
  }
  if (total == 0) return 0;
  return weighted / static_cast<double>(total);
}

void HuffmanCode::Encode(int symbol, BitWriter* writer) const {
  DSIG_CHECK_GE(symbol, 0);
  DSIG_CHECK_LT(symbol, num_symbols());
  writer->WriteBits(codes_[static_cast<size_t>(symbol)],
                    lengths_[static_cast<size_t>(symbol)]);
}

bool HuffmanCode::DecodeLong(BitReader* reader, int* symbol) const {
  if (rzp_shaped_) {
    // Reverse zero padding beyond the table window: symbol s >= 1 is
    // (m-1-s) zeros then a one; symbol 0 is m-1 zeros with no terminator.
    // One bounded word-scan replaces the per-bit trie walk, and the bound
    // makes an all-zero (corrupt) stream a clean failure instead of a crash.
    const int m = num_symbols();
    const int zeros = reader->ReadZeros(m - 1);
    if (zeros == m - 1) {
      *symbol = 0;
      return true;
    }
    if (reader->AtEnd()) return false;  // truncated mid-run
    reader->Skip(1);  // the terminating one — ReadZeros stopped on it
    *symbol = m - 1 - zeros;
    return true;
  }
  int32_t node = 0;
  while (true) {
    if (reader->AtEnd()) return false;
    const auto& [child0, child1] = trie_[static_cast<size_t>(node)];
    const int32_t next = reader->ReadBit() ? child1 : child0;
    if (next == 0) return false;  // bits follow no symbol's prefix
    if (next < 0) {
      *symbol = -1 - next;
      return true;
    }
    node = next;
  }
}

void HuffmanCode::BuildDecodeTable() {
  const int m = num_symbols();
  // Detect the reverse-zero-padding shape (paper §5.2) — the common codec
  // configuration — so codes longer than the table window can decode with a
  // bounded zero-scan instead of the trie. m <= 64 bounds the shift below.
  rzp_shaped_ = m >= 2 && m <= 64;
  for (int s = m - 1; s >= 1 && rzp_shaped_; --s) {
    const int zeros = m - 1 - s;
    rzp_shaped_ = lengths_[static_cast<size_t>(s)] == zeros + 1 &&
                  codes_[static_cast<size_t>(s)] == uint64_t{1} << zeros;
  }
  if (rzp_shaped_) {
    rzp_shaped_ = lengths_[0] == m - 1 && codes_[0] == 0;
  }
  // Symbols are stored as uint16 in the table; an absurdly large alphabet
  // (never produced by this library) simply keeps the trie-only decode.
  if (m > std::numeric_limits<uint16_t>::max()) return;
  table_.assign(size_t{1} << kDecodeTableBits, DecodeSlot{0, 0});
  for (int s = 0; s < m; ++s) {
    const int len = lengths_[static_cast<size_t>(s)];
    if (len > kDecodeTableBits) continue;
    // Every window extending this code decodes to this symbol. The windows
    // are exactly code + k * 2^len; prefix-freeness (checked by the trie
    // build) guarantees no two codes claim the same slot.
    const uint64_t step = uint64_t{1} << len;
    for (uint64_t w = codes_[static_cast<size_t>(s)]; w < table_.size();
         w += step) {
      table_[w] = DecodeSlot{static_cast<uint16_t>(s),
                             static_cast<uint8_t>(len)};
    }
  }
}

void HuffmanCode::BuildDecodeTrie() {
  trie_.assign(1, {0, 0});
  // Reserve the worst case so push_back below never reallocates while a
  // reference into the trie is live.
  size_t max_nodes = 1;
  for (int len : lengths_) max_nodes += static_cast<size_t>(len);
  trie_.reserve(max_nodes);
  for (int s = 0; s < num_symbols(); ++s) {
    int32_t node = 0;
    const int len = lengths_[static_cast<size_t>(s)];
    const uint64_t code = codes_[static_cast<size_t>(s)];
    for (int i = 0; i < len; ++i) {
      const bool bit = (code >> i) & 1;
      int32_t& slot = bit ? trie_[static_cast<size_t>(node)].second
                          : trie_[static_cast<size_t>(node)].first;
      if (i + 1 == len) {
        DSIG_CHECK_EQ(slot, 0);  // prefix-freeness
        slot = -1 - s;
      } else {
        if (slot == 0) {
          trie_.push_back({0, 0});
          slot = static_cast<int32_t>(trie_.size()) - 1;
        }
        DSIG_CHECK_GT(slot, 0);
        node = slot;
      }
    }
  }
}

}  // namespace dsig
