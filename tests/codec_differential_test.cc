// Differential fuzzing of the word-level codec kernels against a scalar
// bit-at-a-time reference. The reference reader re-implements the original
// one-bit-per-step semantics directly from the byte-format contract (bit i
// of the stream is bit (i & 7) of byte (i >> 3)); every word-level fast path
// — unaligned-load ReadBits/PeekBits, the unary zero-scan, and the
// table-driven Huffman decode — must agree with it bit for bit on randomized
// streams, including awkward buffer tails of 0-8 bytes and random seeks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/bitstream.h"
#include "util/huffman.h"
#include "util/random.h"

namespace dsig {
namespace {

// The original scalar reader: one bit per step, no wide loads, no tables.
class ReferenceBitReader {
 public:
  ReferenceBitReader(const uint8_t* data, size_t size_bits)
      : data_(data), size_bits_(size_bits) {}

  bool AtEnd() const { return position_ >= size_bits_; }
  size_t position() const { return position_; }
  void Seek(size_t position) { position_ = position; }

  bool ReadBit() {
    EXPECT_LT(position_, size_bits_);
    const bool bit = (data_[position_ >> 3] >> (position_ & 7)) & 1;
    ++position_;
    return bit;
  }

  uint64_t ReadBits(int width) {
    uint64_t value = 0;
    for (int i = 0; i < width; ++i) {
      if (ReadBit()) value |= uint64_t{1} << i;
    }
    return value;
  }

  uint64_t PeekBits(int width) const {
    uint64_t value = 0;
    for (int i = 0; i < width && position_ + static_cast<size_t>(i) <
                                     size_bits_; ++i) {
      const size_t p = position_ + static_cast<size_t>(i);
      if ((data_[p >> 3] >> (p & 7)) & 1) value |= uint64_t{1} << i;
    }
    return value;
  }

  // Reference unary: count zeros one bit at a time; false if the stream ends
  // before the terminating one, leaving the position unchanged.
  bool TryReadUnary(int* zeros) {
    const size_t saved = position_;
    int count = 0;
    while (!AtEnd()) {
      if (ReadBit()) {
        *zeros = count;
        return true;
      }
      ++count;
    }
    position_ = saved;
    return false;
  }

  // Reference prefix decode: walk the code bit by bit, comparing against
  // every symbol's code directly. False on truncation or a prefix-less run.
  bool TryDecode(const HuffmanCode& code, int* symbol) {
    uint64_t bits = 0;
    for (int len = 1; len <= 64; ++len) {
      if (AtEnd()) return false;
      if (ReadBit()) bits |= uint64_t{1} << (len - 1);
      for (int s = 0; s < code.num_symbols(); ++s) {
        if (code.length(s) == len && code.code(s) == bits) {
          *symbol = s;
          return true;
        }
      }
    }
    return false;
  }

 private:
  const uint8_t* data_;
  size_t size_bits_;
  size_t position_ = 0;
};

std::vector<uint8_t> RandomBytes(Random* rng, size_t n) {
  std::vector<uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng->NextUint64(256));
  return bytes;
}

TEST(CodecDifferentialTest, ReadBitsAgreesOnRandomStreams) {
  Random rng(101);
  for (int trial = 0; trial < 200; ++trial) {
    // Lengths biased toward tiny buffers: tails of 0-8 bytes are where the
    // partial-word load paths live.
    const size_t num_bytes = trial < 80 ? rng.NextUint64(9)
                                        : 1 + rng.NextUint64(256);
    const std::vector<uint8_t> bytes = RandomBytes(&rng, num_bytes);
    const size_t size_bits = num_bytes == 0 ? 0 : num_bytes * 8 - rng.NextUint64(8);
    BitReader fast(bytes.data(), size_bits);
    ReferenceBitReader slow(bytes.data(), size_bits);
    while (!slow.AtEnd()) {
      const size_t remaining = size_bits - slow.position();
      const int width = static_cast<int>(
          rng.NextUint64(std::min<size_t>(remaining, 64) + 1));
      ASSERT_EQ(fast.PeekBits(width), slow.PeekBits(width))
          << "peek at bit " << slow.position() << " width " << width;
      ASSERT_EQ(fast.ReadBits(width), slow.ReadBits(width))
          << "read at bit " << fast.position() << " width " << width;
    }
    EXPECT_TRUE(fast.AtEnd());
  }
}

TEST(CodecDifferentialTest, PeekBitsAgreesAcrossTheEndOfTheStream) {
  Random rng(102);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t num_bytes = rng.NextUint64(24);
    const std::vector<uint8_t> bytes = RandomBytes(&rng, num_bytes);
    const size_t size_bits =
        num_bytes == 0 ? 0 : num_bytes * 8 - rng.NextUint64(8);
    BitReader fast(bytes.data(), size_bits);
    ReferenceBitReader slow(bytes.data(), size_bits);
    for (int probe = 0; probe < 32; ++probe) {
      const size_t pos = rng.NextUint64(size_bits + 1);
      const int width = static_cast<int>(rng.NextUint64(65));
      fast.Seek(pos);
      slow.Seek(pos);
      // Peeks may extend arbitrarily far past the end; the reference pads
      // with zeros by construction, the word reader must match.
      ASSERT_EQ(fast.PeekBits(width), slow.PeekBits(width))
          << "pos " << pos << " width " << width;
    }
  }
}

TEST(CodecDifferentialTest, UnaryAgreesOnRandomAndAdversarialStreams) {
  Random rng(103);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> bytes;
    if (trial % 3 == 0) {
      // Adversarial: long all-zero (or nearly) buffers so runs cross many
      // words and often end truncated.
      bytes.assign(1 + rng.NextUint64(64), 0);
      if (rng.NextUint64(2) == 0 && !bytes.empty()) {
        bytes[rng.NextUint64(bytes.size())] =
            static_cast<uint8_t>(1u << rng.NextUint64(8));
      }
    } else {
      bytes = RandomBytes(&rng, 1 + rng.NextUint64(64));
    }
    const size_t size_bits = bytes.size() * 8 - rng.NextUint64(8);
    BitReader fast(bytes.data(), size_bits);
    ReferenceBitReader slow(bytes.data(), size_bits);
    while (true) {
      int fast_zeros = -1;
      int slow_zeros = -2;
      const bool fast_ok = fast.TryReadUnary(&fast_zeros);
      const bool slow_ok = slow.TryReadUnary(&slow_zeros);
      ASSERT_EQ(fast_ok, slow_ok) << "at bit " << slow.position();
      ASSERT_EQ(fast.position(), slow.position());
      if (!fast_ok) break;
      ASSERT_EQ(fast_zeros, slow_zeros);
    }
  }
}

TEST(CodecDifferentialTest, HuffmanDecodeAgreesOnRandomStreams) {
  Random rng(104);
  std::vector<HuffmanCode> codes;
  codes.push_back(HuffmanCode::ReverseZeroPadding(8));
  codes.push_back(HuffmanCode::ReverseZeroPadding(40));  // past the table
  codes.push_back(HuffmanCode::FixedLength(11));
  {
    std::vector<uint64_t> freqs;  // skewed: mixes short and long codes
    uint64_t f = 1;
    for (int s = 0; s < 20; ++s) {
      freqs.push_back(f);
      f *= 2;
    }
    codes.push_back(HuffmanCode::FromFrequencies(freqs));
  }
  for (const HuffmanCode& code : codes) {
    for (int trial = 0; trial < 60; ++trial) {
      // Random bytes decoded as a code stream: most trials hit truncations
      // and (for non-complete tables) bad prefixes, not just valid symbols.
      const std::vector<uint8_t> bytes =
          RandomBytes(&rng, 1 + rng.NextUint64(48));
      const size_t size_bits = bytes.size() * 8 - rng.NextUint64(8);
      BitReader fast(bytes.data(), size_bits);
      ReferenceBitReader slow(bytes.data(), size_bits);
      while (true) {
        int fast_symbol = -1;
        int slow_symbol = -2;
        const bool fast_ok = code.TryDecode(&fast, &fast_symbol);
        const bool slow_ok = slow.TryDecode(code, &slow_symbol);
        ASSERT_EQ(fast_ok, slow_ok)
            << "at bit " << slow.position() << " of " << size_bits;
        if (!fast_ok) break;
        ASSERT_EQ(fast_symbol, slow_symbol);
        ASSERT_EQ(fast.position(), slow.position());
      }
    }
  }
}

TEST(CodecDifferentialTest, HuffmanDecodeAgreesOnValidStreams) {
  // Valid symbol streams with random seeks back to symbol boundaries: the
  // decoder must reproduce the reference on every resume point.
  Random rng(105);
  for (const int m : {3, 9, 14, 40}) {
    const HuffmanCode code = HuffmanCode::ReverseZeroPadding(m);
    BitWriter writer;
    std::vector<size_t> starts;
    std::vector<int> symbols;
    for (int i = 0; i < 300; ++i) {
      const int s = static_cast<int>(rng.NextUint64(m));
      starts.push_back(writer.size_bits());
      symbols.push_back(s);
      code.Encode(s, &writer);
    }
    BitReader fast(writer.bytes().data(), writer.size_bits());
    ReferenceBitReader slow(writer.bytes().data(), writer.size_bits());
    for (int probe = 0; probe < 200; ++probe) {
      const size_t i = rng.NextUint64(starts.size());
      fast.Seek(starts[i]);
      slow.Seek(starts[i]);
      int fast_symbol = -1;
      ASSERT_TRUE(code.TryDecode(&fast, &fast_symbol));
      EXPECT_EQ(fast_symbol, symbols[i]);
      int slow_symbol = -1;
      ASSERT_TRUE(slow.TryDecode(code, &slow_symbol));
      EXPECT_EQ(slow_symbol, symbols[i]);
      EXPECT_EQ(fast.position(), slow.position());
    }
  }
}

}  // namespace
}  // namespace dsig
