#include "query/join_query.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/signature_builder.h"
#include "graph/graph_generator.h"
#include "tests/test_util.h"
#include "util/simd/simd.h"
#include "workload/dataset_generator.h"

namespace dsig {
namespace {

std::vector<std::pair<uint32_t, uint32_t>> Normalize(
    const std::vector<JoinPair>& pairs) {
  std::vector<std::pair<uint32_t, uint32_t>> out;
  for (const JoinPair& p : pairs) out.push_back({p.left, p.right});
  std::sort(out.begin(), out.end());
  return out;
}

TEST(JoinQueryTest, SmallNetworkHandChecked) {
  const RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  const auto left = BuildSignatureIndex(g, {0, 2}, {.t = 4, .c = 2});
  const auto right = BuildSignatureIndex(g, {3, 5}, {.t = 4, .c = 2});
  // Pair distances: d(0,3)=3, d(0,5)=12, d(2,3)=11, d(2,5)=2.
  const JoinResult r3 = SignatureEpsilonJoin(*left, *right, 1, 3);
  EXPECT_EQ(Normalize(r3.pairs),
            (std::vector<std::pair<uint32_t, uint32_t>>{{0, 0}, {1, 1}}));
  const JoinResult r11 = SignatureEpsilonJoin(*left, *right, 1, 11);
  EXPECT_EQ(Normalize(r11.pairs),
            (std::vector<std::pair<uint32_t, uint32_t>>{
                {0, 0}, {1, 0}, {1, 1}}));
}

TEST(JoinQueryTest, SharedNodesJoinAtZero) {
  const RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  const auto left = BuildSignatureIndex(g, {4}, {.t = 4, .c = 2});
  const auto right = BuildSignatureIndex(g, {4, 6}, {.t = 4, .c = 2});
  const JoinResult r = SignatureEpsilonJoin(*left, *right, 0, 0);
  EXPECT_EQ(Normalize(r.pairs),
            (std::vector<std::pair<uint32_t, uint32_t>>{{0, 0}}));
}

class JoinPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinPropertyTest, MatchesBruteForce) {
  const RoadNetwork g =
      MakeRandomPlanar({.num_nodes = 250, .seed = GetParam()});
  const std::vector<NodeId> left_objects = UniformDataset(g, 0.04, GetParam());
  const std::vector<NodeId> right_objects =
      UniformDataset(g, 0.04, GetParam() + 100);
  const auto left = BuildSignatureIndex(g, left_objects, {.t = 5, .c = 2});
  const auto right = BuildSignatureIndex(g, right_objects, {.t = 5, .c = 2});
  const auto left_truth = testing_util::BruteForceDistances(g, left_objects);

  for (const NodeId n : testing_util::SampleNodes(g, 4, GetParam())) {
    for (const Weight eps : {5.0, 15.0, 40.0}) {
      std::vector<std::pair<uint32_t, uint32_t>> expected;
      for (uint32_t a = 0; a < left_objects.size(); ++a) {
        for (uint32_t b = 0; b < right_objects.size(); ++b) {
          if (left_truth[a][right_objects[b]] <= eps) {
            expected.push_back({a, b});
          }
        }
      }
      const JoinResult r = SignatureEpsilonJoin(*left, *right, n, eps);
      EXPECT_EQ(Normalize(r.pairs), expected)
          << "node " << n << " eps " << eps;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinPropertyTest,
                         ::testing::Values(2, 12, 32));

// What `refine = false` must return, in (left, right) order: co-located
// pairs, pairs whose summed category upper bounds are <= eps, and pairs the
// triangle bounds leave undecided whose summed midpoints are <= eps. Pairs
// whose lower bound exceeds eps count as pruned; nothing is evaluated.
JoinResult CategoryOnlyJoin(const SignatureIndex& left,
                            const SignatureIndex& right, NodeId n,
                            Weight eps) {
  const SignatureRow left_row = testing_util::StagedRow(left, n);
  const SignatureRow right_row = testing_util::StagedRow(right, n);
  const CategoryPartition& lp = left.partition();
  const CategoryPartition& rp = right.partition();
  JoinResult expected;
  for (uint32_t a = 0; a < left_row.size(); ++a) {
    const DistanceRange ra = lp.RangeOf(left_row[a].category);
    for (uint32_t b = 0; b < right_row.size(); ++b) {
      if (left.object_node(a) == right.object_node(b)) {
        expected.pairs.push_back({a, b});
        continue;
      }
      const DistanceRange rb = rp.RangeOf(right_row[b].category);
      Weight lower = 0;
      if (ra.ub != kInfiniteWeight) lower = std::max(lower, rb.lb - ra.ub);
      if (rb.ub != kInfiniteWeight) lower = std::max(lower, ra.lb - rb.ub);
      if (lower > eps) {
        ++expected.pruned_by_categories;
      } else if (ra.ub != kInfiniteWeight && rb.ub != kInfiniteWeight &&
                 ra.ub + rb.ub <= eps) {
        expected.pairs.push_back({a, b});
      } else if (lp.Midpoint(left_row[a].category) +
                     rp.Midpoint(right_row[b].category) <=
                 eps) {
        expected.pairs.push_back({a, b});
      }
    }
  }
  return expected;
}

std::vector<std::pair<uint32_t, uint32_t>> InOrder(
    const std::vector<JoinPair>& pairs) {
  std::vector<std::pair<uint32_t, uint32_t>> out;
  for (const JoinPair& p : pairs) out.push_back({p.left, p.right});
  return out;
}

TEST(JoinQueryTest, CategoryOnlyMatchesTheCategoryRule) {
  for (const testing_util::CategoryOnlyCase& c :
       testing_util::CategoryOnlyCases()) {
    // A self-join, and a join of two datasets whose partitions differ.
    const auto left = BuildSignatureIndex(c.graph, c.objects, {.t = 5, .c = 2});
    const auto right = BuildSignatureIndex(
        c.graph, UniformDataset(c.graph, 0.05, 8), {.t = 3, .c = 3});
    std::vector<Weight> epsilons = {0.0, 1e9};
    for (int cat = 0; cat < left->partition().num_categories(); ++cat) {
      epsilons.push_back(left->partition().Midpoint(cat));
    }
    for (const simd::SimdLevel level : simd::AvailableLevels()) {
      const simd::SimdOverride pin(level);
      ASSERT_TRUE(pin.applied());
      for (const NodeId n : testing_util::SampleNodes(c.graph, 4, 7)) {
        for (const Weight eps : epsilons) {
          for (const SignatureIndex* other : {left.get(), right.get()}) {
            const JoinResult expected =
                CategoryOnlyJoin(*left, *other, n, eps);
            const JoinResult got =
                SignatureEpsilonJoin(*left, *other, n, eps, /*refine=*/false);
            const bool self = other == left.get();
            EXPECT_EQ(InOrder(got.pairs), InOrder(expected.pairs))
                << c.name << " " << simd::SimdLevelName(level) << " n=" << n
                << " eps=" << eps << " self=" << self;
            EXPECT_EQ(got.pruned_by_categories, expected.pruned_by_categories)
                << c.name << " " << simd::SimdLevelName(level) << " n=" << n
                << " eps=" << eps << " self=" << self;
            EXPECT_EQ(got.exact_evaluations, 0u);
            EXPECT_FALSE(got.deadline_exceeded);
          }
        }
      }
    }
  }
}

TEST(JoinQueryTest, PruningActuallyPrunes) {
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 500, .seed = 7});
  const auto left =
      BuildSignatureIndex(g, UniformDataset(g, 0.04, 1), {.t = 5, .c = 2});
  const auto right =
      BuildSignatureIndex(g, UniformDataset(g, 0.04, 2), {.t = 5, .c = 2});
  const JoinResult r = SignatureEpsilonJoin(*left, *right, 9, 5);
  // Category bounds can only separate pairs whose ranges differ enough;
  // pairs both remote from the query node are undecidable from s(n) alone
  // and fall through to (cheap) exact node-distance refinement. The
  // expensive step — an exact d(a, b) evaluation — must stay rare.
  const size_t total = left->num_objects() * right->num_objects();
  EXPECT_GT(r.pruned_by_categories, 0u);
  EXPECT_LT(r.exact_evaluations, total / 4);
}

}  // namespace
}  // namespace dsig
