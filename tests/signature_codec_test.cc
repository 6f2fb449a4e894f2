#include "core/signature.h"

#include <gtest/gtest.h>

#include "core/encoding.h"
#include "core/row_stage.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace dsig {
namespace {

SignatureRow RandomRow(Random* rng, size_t size, int categories, int max_link,
                       bool allow_compressed) {
  SignatureRow row(size);
  for (SignatureEntry& entry : row) {
    entry.category = static_cast<uint8_t>(rng->NextUint64(categories));
    entry.link = static_cast<uint8_t>(rng->NextUint64(max_link + 1));
    entry.compressed = allow_compressed && rng->NextBool(0.4);
  }
  return row;
}

// Decodes `encoded` through the staged row decoder; a failed decode fails
// the test and yields an empty row.
SignatureRow DecodeStaged(const SignatureCodec& codec,
                          const EncodedRow& encoded, size_t entries) {
  RowStage stage;
  const bool ok = codec.TryDecodeRowStage(encoded, entries, &stage);
  EXPECT_TRUE(ok);
  return ok ? testing_util::StageEntries(stage) : SignatureRow();
}

TEST(SignatureCodecTest, RoundTripWithoutFlags) {
  Random rng(3);
  const SignatureCodec codec(HuffmanCode::ReverseZeroPadding(8), 3, false);
  const SignatureRow row = RandomRow(&rng, 100, 8, 7, false);
  const EncodedRow encoded = codec.EncodeRow(row);
  EXPECT_EQ(DecodeStaged(codec, encoded, row.size()), row);
}

TEST(SignatureCodecTest, RoundTripWithFlags) {
  Random rng(4);
  const SignatureCodec codec(HuffmanCode::ReverseZeroPadding(8), 3, true);
  SignatureRow row = RandomRow(&rng, 100, 8, 7, true);
  const EncodedRow encoded = codec.EncodeRow(row);
  const SignatureRow decoded = DecodeStaged(codec, encoded, row.size());
  ASSERT_EQ(decoded.size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(decoded[i].compressed, row[i].compressed);
    if (!row[i].compressed) {
      EXPECT_EQ(decoded[i].category, row[i].category);
      EXPECT_EQ(decoded[i].link, row[i].link);
    } else {
      EXPECT_EQ(decoded[i].category, kUnresolvedCategory);
      EXPECT_EQ(decoded[i].link, kUnresolvedLink);
    }
  }
}

TEST(SignatureCodecTest, CompressedEntriesCostOneBit) {
  const SignatureCodec codec(HuffmanCode::ReverseZeroPadding(4), 3, true);
  SignatureRow all_compressed(64);
  for (SignatureEntry& e : all_compressed) e.compressed = true;
  const EncodedRow encoded = codec.EncodeRow(all_compressed);
  EXPECT_EQ(encoded.size_bits, 64u);
}

TEST(SignatureCodecTest, EmptyRow) {
  const SignatureCodec codec(HuffmanCode::ReverseZeroPadding(4), 3, false);
  const EncodedRow encoded = codec.EncodeRow({});
  EXPECT_EQ(encoded.size_bits, 0u);
  RowStage stage;
  EXPECT_TRUE(codec.TryDecodeRowStage(encoded, 0, &stage));
  EXPECT_TRUE(stage.empty());
}

TEST(SignatureCodecTest, DecodeEntryMatchesDecodeRow) {
  Random rng(9);
  const SignatureCodec codec(HuffmanCode::ReverseZeroPadding(12), 4, true);
  const SignatureRow row = RandomRow(&rng, 200, 12, 15, true);
  const EncodedRow encoded = codec.EncodeRow(row);
  const SignatureRow decoded = DecodeStaged(codec, encoded, row.size());
  ASSERT_EQ(decoded.size(), row.size());
  // Each component starts where the previous one's flag, category code and
  // link end; a compressed component is its flag bit alone.
  uint64_t expected_offset = 0;
  for (uint32_t i = 0; i < row.size(); ++i) {
    uint64_t offset = 0;
    SignatureEntry entry;
    ASSERT_TRUE(codec.TryDecodeEntry(encoded, i, &entry, &offset))
        << "entry " << i;
    EXPECT_EQ(entry, decoded[i]) << "entry " << i;
    EXPECT_EQ(offset, expected_offset) << "entry " << i;
    expected_offset += 1;
    if (!row[i].compressed) {
      expected_offset += static_cast<uint64_t>(
          codec.category_code().length(row[i].category) + codec.link_bits());
    }
  }
  EXPECT_EQ(expected_offset, encoded.size_bits);
}

TEST(SignatureCodecTest, EntryOffsetsAreMonotone) {
  Random rng(10);
  const SignatureCodec codec(HuffmanCode::ReverseZeroPadding(6), 3, false);
  const SignatureRow row = RandomRow(&rng, 150, 6, 7, false);
  const EncodedRow encoded = codec.EncodeRow(row);
  uint64_t prev = 0;
  for (uint32_t i = 0; i < row.size(); ++i) {
    uint64_t offset = 0;
    SignatureEntry entry;
    ASSERT_TRUE(codec.TryDecodeEntry(encoded, i, &entry, &offset));
    EXPECT_EQ(entry, row[i]) << "entry " << i;
    if (i > 0) {
      EXPECT_GT(offset, prev);
    }
    prev = offset;
  }
}

TEST(SignatureCodecTest, CheckpointsEveryInterval) {
  Random rng(11);
  const SignatureCodec codec(HuffmanCode::ReverseZeroPadding(6), 3, false);
  const SignatureRow row = RandomRow(&rng, 100, 6, 7, false);
  const EncodedRow encoded = codec.EncodeRow(row);
  EXPECT_EQ(encoded.checkpoints.size(),
            (row.size() + SignatureCodec::kCheckpointInterval - 1) /
                SignatureCodec::kCheckpointInterval);
  EXPECT_EQ(encoded.checkpoints[0], 0u);
}

TEST(SignatureCodecTest, FixedCodecRoundTrip) {
  Random rng(12);
  const SignatureCodec codec(
      BuildCategoryCode(CategoryCodeKind::kFixed, 10, {}), 3, false);
  const SignatureRow row = RandomRow(&rng, 64, 10, 7, false);
  EXPECT_EQ(DecodeStaged(codec, codec.EncodeRow(row), row.size()), row);
}

}  // namespace
}  // namespace dsig
