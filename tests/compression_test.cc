#include "core/compression.h"

#include <gtest/gtest.h>

#include "core/row_stage.h"
#include "core/signature_builder.h"
#include "graph/graph_generator.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "workload/dataset_generator.h"

namespace dsig {
namespace {

TEST(AddUpTest, Definition51) {
  // Unequal categories: the larger dominates.
  EXPECT_EQ(AddUpCategories(2, 5, 8), 5);
  EXPECT_EQ(AddUpCategories(5, 2, 8), 5);
  EXPECT_EQ(AddUpCategories(0, 7, 8), 7);
  // Equal categories: spill into the next one.
  EXPECT_EQ(AddUpCategories(3, 3, 8), 4);
  EXPECT_EQ(AddUpCategories(0, 0, 8), 1);
  // Clamped at the last category.
  EXPECT_EQ(AddUpCategories(7, 7, 8), 7);
}

TEST(CompressionTest, CategoryZeroEntriesNeverCompress) {
  // Category-0 results are impossible for the add-up (always >= 1), so no
  // category-0 entry may ever be flagged regardless of the data.
  const RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  const auto index = BuildSignatureIndex(
      g, {0, 1, 4}, {.t = 2, .c = 2, .compress = true});
  RowStage unresolved;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    ASSERT_TRUE(index->codec().TryDecodeRowStage(
        index->encoded_row(n), index->num_objects(), &unresolved));
    const SignatureRow resolved = testing_util::StagedRow(*index, n);
    for (size_t i = 0; i < resolved.size(); ++i) {
      if (resolved[i].category == 0) {
        EXPECT_EQ(unresolved.flags()[i], 0);
      }
    }
  }
}

// The core lossless-compression property: compress + resolve is identity.
class CompressionRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompressionRoundTripTest, CompressResolveIsIdentity) {
  const RoadNetwork g =
      MakeRandomPlanar({.num_nodes = 400, .seed = GetParam()});
  const std::vector<NodeId> objects = UniformDataset(g, 0.05, GetParam());
  // Build WITHOUT compression to get ground-truth rows, then run each row
  // through the whole write and read path against the same partition/table:
  // compress, encode with flag bits, decode into a stage, resolve.
  const auto index = BuildSignatureIndex(
      g, objects, {.t = 5, .c = 2, .compress = false});
  const RowCompressor compressor(&index->partition(), &index->object_table());
  const SignatureCodec codec(index->codec().category_code(),
                             index->codec().link_bits(), /*has_flags=*/true);
  size_t total_flagged = 0;
  RowStage restored;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const SignatureRow truth = testing_util::StagedRow(*index, n);
    SignatureRow work = truth;
    total_flagged += compressor.Compress(&work);
    ASSERT_TRUE(
        codec.TryDecodeRowStage(codec.EncodeRow(work), truth.size(), &restored))
        << "node " << n;
    ASSERT_TRUE(compressor.TryResolveStage(&restored)) << "node " << n;
    // Every flagged entry must resolve to its original category AND link.
    EXPECT_FALSE(restored.any_compressed());
    for (uint32_t i = 0; i < truth.size(); ++i) {
      EXPECT_EQ(restored.categories()[i], truth[i].category)
          << "node " << n << " object " << i;
      EXPECT_EQ(restored.links()[i], truth[i].link)
          << "node " << n << " object " << i;
      EXPECT_EQ(restored.flags()[i], 0) << "node " << n << " object " << i;
    }
  }
  // The whole point of §5.3: a large share of entries compress away.
  const size_t total_entries = g.num_nodes() * objects.size();
  EXPECT_GT(total_flagged, total_entries / 4)
      << "compression should flag a substantial fraction of entries";
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressionRoundTripTest,
                         ::testing::Values(1, 7, 42));

TEST(CompressionTest, ObjectPairCategoryUsesFarMarker) {
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 500, .seed = 2});
  const std::vector<NodeId> objects = UniformDataset(g, 0.02, 2);
  const auto index =
      BuildSignatureIndex(g, objects, {.t = 3, .c = 2, .compress = true});
  const RowCompressor compressor(&index->partition(), &index->object_table());
  const int last = index->partition().num_categories() - 1;
  for (uint32_t u = 0; u < objects.size(); ++u) {
    for (uint32_t v = 0; v < objects.size(); ++v) {
      if (u == v) continue;
      if (index->object_table().IsFar(u, v)) {
        EXPECT_EQ(compressor.ObjectPairCategory(u, v), last);
      } else {
        EXPECT_LT(compressor.ObjectPairCategory(u, v), last);
      }
    }
  }
}

}  // namespace
}  // namespace dsig
