#include "util/huffman.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/bitstream.h"
#include "util/random.h"

namespace dsig {
namespace {

std::vector<int> EncodeDecodeAll(const HuffmanCode& code, int repeats) {
  BitWriter writer;
  std::vector<int> symbols;
  for (int r = 0; r < repeats; ++r) {
    for (int s = 0; s < code.num_symbols(); ++s) {
      symbols.push_back(s);
      code.Encode(s, &writer);
    }
  }
  BitReader reader(writer.bytes().data(), writer.size_bits());
  std::vector<int> decoded;
  for (size_t i = 0; i < symbols.size(); ++i) {
    int symbol = -1;
    EXPECT_TRUE(code.TryDecode(&reader, &symbol));
    decoded.push_back(symbol);
  }
  EXPECT_TRUE(reader.AtEnd());
  return decoded;
}

TEST(HuffmanTest, SingleSymbolAlphabet) {
  const HuffmanCode code = HuffmanCode::FromFrequencies({42});
  EXPECT_EQ(code.num_symbols(), 1);
  EXPECT_EQ(code.length(0), 1);
  EXPECT_EQ(EncodeDecodeAll(code, 3), std::vector<int>({0, 0, 0}));
}

TEST(HuffmanTest, TwoSymbolsGetOneBitEach) {
  const HuffmanCode code = HuffmanCode::FromFrequencies({10, 90});
  EXPECT_EQ(code.length(0), 1);
  EXPECT_EQ(code.length(1), 1);
}

TEST(HuffmanTest, SkewedFrequenciesGiveShortCodesToCommonSymbols) {
  const HuffmanCode code = HuffmanCode::FromFrequencies({1, 2, 4, 8, 100});
  EXPECT_EQ(code.length(4), 1);
  EXPECT_GT(code.length(0), code.length(4));
  EXPECT_GE(code.length(0), code.length(3));
}

TEST(HuffmanTest, RoundTripRandomFrequencies) {
  Random rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 1 + static_cast<int>(rng.NextUint64(24));
    std::vector<uint64_t> freqs;
    for (int i = 0; i < n; ++i) freqs.push_back(rng.NextUint64(1000));
    const HuffmanCode code = HuffmanCode::FromFrequencies(freqs);
    std::vector<int> expected;
    for (int r = 0; r < 3; ++r) {
      for (int s = 0; s < n; ++s) expected.push_back(s);
    }
    EXPECT_EQ(EncodeDecodeAll(code, 3), expected);
  }
}

TEST(HuffmanTest, KraftEqualityHolds) {
  // Huffman codes are complete: sum 2^-len == 1.
  const HuffmanCode code = HuffmanCode::FromFrequencies({3, 1, 4, 1, 5, 9, 2});
  double kraft = 0;
  for (int s = 0; s < code.num_symbols(); ++s) {
    kraft += std::pow(2.0, -code.length(s));
  }
  EXPECT_NEAR(kraft, 1.0, 1e-12);
}

TEST(HuffmanTest, FixedLengthCode) {
  const HuffmanCode code = HuffmanCode::FixedLength(5);
  for (int s = 0; s < 5; ++s) EXPECT_EQ(code.length(s), 3);
  EXPECT_EQ(EncodeDecodeAll(code, 2),
            std::vector<int>({0, 1, 2, 3, 4, 0, 1, 2, 3, 4}));
}

TEST(HuffmanTest, FixedLengthPowerOfTwo) {
  const HuffmanCode code = HuffmanCode::FixedLength(8);
  for (int s = 0; s < 8; ++s) EXPECT_EQ(code.length(s), 3);
}

TEST(HuffmanTest, ReverseZeroPaddingShape) {
  // Paper §5.2: last category = "1", each earlier category one bit longer;
  // category 0 completes the code space (same length as category 1).
  const HuffmanCode code = HuffmanCode::ReverseZeroPadding(5);
  EXPECT_EQ(code.length(4), 1);
  EXPECT_EQ(code.length(3), 2);
  EXPECT_EQ(code.length(2), 3);
  EXPECT_EQ(code.length(1), 4);
  EXPECT_EQ(code.length(0), 4);
}

TEST(HuffmanTest, ReverseZeroPaddingRoundTrip) {
  for (int m : {1, 2, 3, 8, 31}) {
    const HuffmanCode code = HuffmanCode::ReverseZeroPadding(m);
    std::vector<int> expected;
    for (int s = 0; s < m; ++s) expected.push_back(s);
    EXPECT_EQ(EncodeDecodeAll(code, 1), expected) << "m=" << m;
  }
}

TEST(HuffmanTest, CodesLongerThanTheDecodeTableRoundTrip) {
  // A large skewed alphabet forces codes past kDecodeTableBits, exercising
  // the trie fallback behind the table fast path.
  std::vector<uint64_t> freqs;
  uint64_t f = 1;
  for (int s = 0; s < 24; ++s) {
    freqs.push_back(f);
    if (f < (uint64_t{1} << 40)) f *= 2;
  }
  const HuffmanCode code = HuffmanCode::FromFrequencies(freqs);
  EXPECT_GT(code.length(0), HuffmanCode::kDecodeTableBits);
  std::vector<int> expected;
  for (int r = 0; r < 2; ++r) {
    for (int s = 0; s < code.num_symbols(); ++s) expected.push_back(s);
  }
  EXPECT_EQ(EncodeDecodeAll(code, 2), expected);
}

TEST(HuffmanTest, LargeRzpAlphabetUsesTheUnaryFallback) {
  // m = 40 puts most categories past the decode table; those decode through
  // the bounded zero-scan. Category 0 (m-1 zeros, no terminator) included.
  const HuffmanCode code = HuffmanCode::ReverseZeroPadding(40);
  std::vector<int> expected;
  for (int s = 0; s < 40; ++s) expected.push_back(s);
  EXPECT_EQ(EncodeDecodeAll(code, 1), expected);
}

TEST(HuffmanTest, TryDecodeReportsTruncationMidLongCode) {
  const HuffmanCode code = HuffmanCode::ReverseZeroPadding(40);
  BitWriter writer;
  code.Encode(5, &writer);  // 34 zeros then a one
  // Truncate inside the zero run: every prefix must fail cleanly.
  for (size_t bits = 0; bits < 34; ++bits) {
    BitReader reader(writer.bytes().data(), bits);
    int symbol = -1;
    EXPECT_FALSE(code.TryDecode(&reader, &symbol)) << bits << " bits";
  }
  BitReader reader(writer.bytes().data(), writer.size_bits());
  int symbol = -1;
  ASSERT_TRUE(code.TryDecode(&reader, &symbol));
  EXPECT_EQ(symbol, 5);
}

TEST(HuffmanTest, TryDecodeReportsTruncationMidShortCode) {
  // Truncation inside a table-resolved code must be caught too: the table
  // matches against a zero-padded window, so the explicit bounds check is
  // what rejects it.
  const HuffmanCode code = HuffmanCode::FixedLength(8);  // 3-bit codes
  BitWriter writer;
  code.Encode(7, &writer);
  for (size_t bits = 0; bits < 3; ++bits) {
    BitReader reader(writer.bytes().data(), bits);
    int symbol = -1;
    EXPECT_FALSE(code.TryDecode(&reader, &symbol)) << bits << " bits";
  }
}

TEST(HuffmanTest, DecodeWindowMatchesDecode) {
  Random rng(21);
  for (const int m : {2, 5, 12, 17}) {
    const HuffmanCode code = HuffmanCode::ReverseZeroPadding(m);
    for (int s = 0; s < m; ++s) {
      // Embed the code in random following bits; a window decode must see
      // exactly the same symbol and length as the streaming decoder.
      BitWriter writer;
      code.Encode(s, &writer);
      writer.WriteBits(rng.NextUint64(), 36);
      BitReader reader(writer.bytes().data(), writer.size_bits());
      const uint64_t window = reader.PeekBits(57);
      int symbol = -1;
      const int len = code.DecodeWindow(window, &symbol);
      if (code.length(s) <= HuffmanCode::kDecodeTableBits) {
        EXPECT_EQ(len, code.length(s)) << "m=" << m << " s=" << s;
        EXPECT_EQ(symbol, s) << "m=" << m << " s=" << s;
      } else {
        EXPECT_EQ(len, 0) << "m=" << m << " s=" << s;  // fallback signal
      }
      int decoded = -1;
      ASSERT_TRUE(code.TryDecode(&reader, &decoded));
      EXPECT_EQ(decoded, s);
    }
  }
}

// Theorem 5.1: under exponential partition with c > 3/2 (category k holding
// more objects than all earlier categories combined), reverse zero padding
// achieves the Huffman-optimal average code length.
class RzpOptimalityTest : public ::testing::TestWithParam<double> {};

TEST_P(RzpOptimalityTest, MatchesHuffmanWhenEachCategoryDominates) {
  const double c = GetParam();
  const int m = 10;
  // Object counts grow like the grid analysis: O(ub^2) per category, so
  // |B_k| ~ c^{2k} (1 - c^-2): each category dwarfs the earlier ones when
  // c > 3/2... approximate with the category mass used in the paper's proof.
  std::vector<uint64_t> freqs;
  double bound = 10;
  double prev_area = 0;
  for (int k = 0; k < m; ++k) {
    const double area = 2 * bound * bound + bound;
    freqs.push_back(static_cast<uint64_t>(area - prev_area));
    prev_area = area;
    bound *= c;
  }
  const HuffmanCode rzp = HuffmanCode::ReverseZeroPadding(m);
  const HuffmanCode optimal = HuffmanCode::FromFrequencies(freqs);
  EXPECT_NEAR(rzp.AverageLength(freqs), optimal.AverageLength(freqs), 1e-9)
      << "c=" << c;
}

INSTANTIATE_TEST_SUITE_P(GrowthFactors, RzpOptimalityTest,
                         ::testing::Values(1.6, 2.0, 2.718281828, 4.0, 6.0));

TEST(HuffmanTest, RzpSuboptimalWhenDistributionInverts) {
  // With mass concentrated in the FIRST category the RZP premise fails and
  // Huffman must win.
  const std::vector<uint64_t> freqs = {1000, 10, 10, 10, 10};
  const HuffmanCode rzp = HuffmanCode::ReverseZeroPadding(5);
  const HuffmanCode optimal = HuffmanCode::FromFrequencies(freqs);
  EXPECT_GT(rzp.AverageLength(freqs), optimal.AverageLength(freqs));
}

TEST(HuffmanTest, RzpAverageLengthNearOneForLargeC) {
  // Paper §5.2: average code length approaches c^2/(c^2-1); about 1.2 bits
  // at c = e.
  const double c = std::exp(1.0);
  const int m = 12;
  std::vector<uint64_t> freqs;
  double bound = 10;
  double prev = 0;
  for (int k = 0; k < m; ++k) {
    const double area = 2 * bound * bound + bound;
    freqs.push_back(static_cast<uint64_t>(area - prev));
    prev = area;
    bound *= c;
  }
  const double avg = HuffmanCode::ReverseZeroPadding(m).AverageLength(freqs);
  EXPECT_GT(avg, 1.0);
  EXPECT_LT(avg, 1.35);
}

}  // namespace
}  // namespace dsig
