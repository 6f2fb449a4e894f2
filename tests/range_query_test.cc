#include "query/range_query.h"

#include <gtest/gtest.h>

#include "core/signature_builder.h"
#include "graph/graph_generator.h"
#include "tests/test_util.h"
#include "util/simd/simd.h"
#include "workload/dataset_generator.h"

namespace dsig {
namespace {

std::vector<uint32_t> BruteForceRange(
    const std::vector<std::vector<Weight>>& truth, NodeId n, Weight eps) {
  std::vector<uint32_t> result;
  for (uint32_t o = 0; o < truth.size(); ++o) {
    if (truth[o][n] <= eps) result.push_back(o);
  }
  return result;
}

TEST(RangeQueryTest, SmallNetworkHandChecked) {
  const RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  const std::vector<NodeId> objects = {1, 5, 6};
  const auto index = BuildSignatureIndex(g, objects, {.t = 4, .c = 2});
  // From node 0: d(0,1)=4, d(0,5)=12, d(0,6)=11.
  EXPECT_EQ(SignatureRangeQuery(*index, 0, 4).objects,
            std::vector<uint32_t>({0}));
  EXPECT_EQ(SignatureRangeQuery(*index, 0, 11).objects,
            std::vector<uint32_t>({0, 2}));
  EXPECT_EQ(SignatureRangeQuery(*index, 0, 12).objects,
            std::vector<uint32_t>({0, 1, 2}));
  EXPECT_TRUE(SignatureRangeQuery(*index, 0, 3).objects.empty());
}

TEST(RangeQueryTest, ZeroEpsilonFindsCoLocatedObjectOnly) {
  const RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  const auto index = BuildSignatureIndex(g, {2, 4}, {.t = 4, .c = 2});
  EXPECT_EQ(SignatureRangeQuery(*index, 4, 0).objects,
            std::vector<uint32_t>({1}));
  EXPECT_TRUE(SignatureRangeQuery(*index, 0, 0).objects.empty());
}

class RangeQueryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RangeQueryPropertyTest, MatchesBruteForce) {
  const RoadNetwork g =
      MakeRandomPlanar({.num_nodes = 400, .seed = GetParam()});
  const std::vector<NodeId> objects = UniformDataset(g, 0.05, GetParam());
  const auto index = BuildSignatureIndex(g, objects, {.t = 5, .c = 2});
  const auto truth = testing_util::BruteForceDistances(g, objects);
  for (const NodeId n : testing_util::SampleNodes(g, 25, GetParam() + 1)) {
    for (const Weight eps : {0.0, 3.0, 10.0, 25.0, 60.0, 1e9}) {
      EXPECT_EQ(SignatureRangeQuery(*index, n, eps).objects,
                BruteForceRange(truth, n, eps))
          << "node " << n << " eps " << eps;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeQueryPropertyTest,
                         ::testing::Values(1, 9, 27));

// What `refine = false` must return: objects whose category upper bound is
// <= eps, plus straddlers (lb <= eps < ub) whose category midpoint is
// <= eps; `refined` counts the straddlers.
RangeQueryResult CategoryOnlyRange(const SignatureIndex& index, NodeId n,
                                   Weight eps) {
  const SignatureRow row = testing_util::StagedRow(index, n);
  const CategoryPartition& partition = index.partition();
  RangeQueryResult expected;
  for (uint32_t o = 0; o < row.size(); ++o) {
    const DistanceRange r = partition.RangeOf(row[o].category);
    if (r.ub != kInfiniteWeight && r.ub <= eps) {
      expected.objects.push_back(o);
    } else if (r.lb <= eps) {
      ++expected.refined;
      if (partition.Midpoint(row[o].category) <= eps) {
        expected.objects.push_back(o);
      }
    }
  }
  return expected;
}

TEST(RangeQueryTest, CategoryOnlyMatchesTheCategoryRule) {
  for (const testing_util::CategoryOnlyCase& c :
       testing_util::CategoryOnlyCases()) {
    const auto index =
        BuildSignatureIndex(c.graph, c.objects, {.t = 5, .c = 2});
    const CategoryPartition& partition = index->partition();
    // Every category midpoint and boundary, plus the extremes.
    std::vector<Weight> epsilons = {0.0, 1e9};
    for (int cat = 0; cat < partition.num_categories(); ++cat) {
      epsilons.push_back(partition.Midpoint(cat));
      epsilons.push_back(partition.LowerBound(cat));
    }
    for (const simd::SimdLevel level : simd::AvailableLevels()) {
      const simd::SimdOverride pin(level);
      ASSERT_TRUE(pin.applied());
      for (const NodeId n : testing_util::SampleNodes(c.graph, 10, 6)) {
        for (const Weight eps : epsilons) {
          const RangeQueryResult expected = CategoryOnlyRange(*index, n, eps);
          const RangeQueryResult got =
              SignatureRangeQuery(*index, n, eps, /*refine=*/false);
          EXPECT_EQ(got.objects, expected.objects)
              << c.name << " " << simd::SimdLevelName(level) << " n=" << n
              << " eps=" << eps;
          EXPECT_EQ(got.refined, expected.refined)
              << c.name << " " << simd::SimdLevelName(level) << " n=" << n
              << " eps=" << eps;
          EXPECT_FALSE(got.deadline_exceeded);
        }
      }
    }
  }
}

TEST(RangeQueryTest, BoundaryEpsilonIncludesExactMatches) {
  const RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  const auto index = BuildSignatureIndex(g, {5}, {.t = 4, .c = 2});
  // d(0, 5) = 12 exactly; eps = 12 must include it, eps just below not.
  EXPECT_EQ(SignatureRangeQuery(*index, 0, 12).objects.size(), 1u);
  EXPECT_TRUE(SignatureRangeQuery(*index, 0, 11.999).objects.empty());
}

TEST(RangeQueryTest, CategoryPruningAvoidsMostRefinement) {
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 800, .seed = 2});
  const std::vector<NodeId> objects = UniformDataset(g, 0.05, 3);
  const auto index = BuildSignatureIndex(g, objects, {.t = 5, .c = 2});
  size_t refined = 0, total = 0;
  for (const NodeId n : testing_util::SampleNodes(g, 20, 4)) {
    const RangeQueryResult r = SignatureRangeQuery(*index, n, 20);
    refined += r.refined;
    total += objects.size();
  }
  // Most objects resolve from their category alone.
  EXPECT_LT(refined, total / 2);
}

}  // namespace
}  // namespace dsig
