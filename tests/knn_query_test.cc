#include "query/knn_query.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/signature_builder.h"
#include "graph/graph_generator.h"
#include "tests/test_util.h"
#include "util/simd/simd.h"
#include "workload/dataset_generator.h"

namespace dsig {
namespace {

// The k smallest true distances (the distance multiset is what all result
// types must agree on; object identity can differ under distance ties).
std::vector<Weight> BruteForceKnnDistances(
    const std::vector<std::vector<Weight>>& truth, NodeId n, size_t k) {
  std::vector<Weight> d;
  for (const auto& row : truth) d.push_back(row[n]);
  std::sort(d.begin(), d.end());
  d.resize(std::min(k, d.size()));
  return d;
}

TEST(KnnQueryTest, SmallNetworkType1) {
  const RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  const std::vector<NodeId> objects = {1, 5, 6};
  const auto index = BuildSignatureIndex(g, objects, {.t = 4, .c = 2});
  // From node 0: d=4 (obj 0), 12 (obj 1), 11 (obj 2).
  const KnnResult r = SignatureKnnQuery(*index, 0, 2, KnnResultType::kType1);
  ASSERT_EQ(r.objects.size(), 2u);
  EXPECT_EQ(r.objects[0], 0u);
  EXPECT_EQ(r.objects[1], 2u);
  EXPECT_EQ(r.distances, std::vector<Weight>({4, 11}));
}

TEST(KnnQueryTest, KZeroAndKBeyondDataset) {
  const RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  const auto index = BuildSignatureIndex(g, {1, 5}, {.t = 4, .c = 2});
  EXPECT_TRUE(
      SignatureKnnQuery(*index, 0, 0, KnnResultType::kType3).objects.empty());
  const KnnResult all =
      SignatureKnnQuery(*index, 0, 10, KnnResultType::kType3);
  EXPECT_EQ(all.objects.size(), 2u);
}

TEST(KnnQueryTest, QueryAtObjectNodeReturnsItFirst) {
  const RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  const auto index = BuildSignatureIndex(g, {2, 4}, {.t = 4, .c = 2});
  const KnnResult r = SignatureKnnQuery(*index, 4, 1, KnnResultType::kType1);
  ASSERT_EQ(r.objects.size(), 1u);
  EXPECT_EQ(r.objects[0], 1u);
  EXPECT_EQ(r.distances[0], 0);
}

class KnnPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KnnPropertyTest, AllTypesMatchBruteForce) {
  const RoadNetwork g =
      MakeRandomPlanar({.num_nodes = 400, .seed = GetParam()});
  const std::vector<NodeId> objects = UniformDataset(g, 0.06, GetParam());
  const auto index = BuildSignatureIndex(g, objects, {.t = 5, .c = 2});
  const auto truth = testing_util::BruteForceDistances(g, objects);
  for (const NodeId n : testing_util::SampleNodes(g, 12, GetParam() + 2)) {
    for (const size_t k : {1u, 3u, 5u, 10u}) {
      const std::vector<Weight> expected =
          BruteForceKnnDistances(truth, n, k);

      // Type 3: membership — the distance multiset must match.
      const KnnResult t3 =
          SignatureKnnQuery(*index, n, k, KnnResultType::kType3);
      std::vector<Weight> d3;
      for (const uint32_t o : t3.objects) d3.push_back(truth[o][n]);
      std::sort(d3.begin(), d3.end());
      EXPECT_EQ(d3, expected) << "type3 n=" << n << " k=" << k;

      // Type 2: ordering preserved.
      const KnnResult t2 =
          SignatureKnnQuery(*index, n, k, KnnResultType::kType2);
      std::vector<Weight> d2;
      for (const uint32_t o : t2.objects) d2.push_back(truth[o][n]);
      EXPECT_TRUE(std::is_sorted(d2.begin(), d2.end()))
          << "type2 order n=" << n << " k=" << k;
      std::vector<Weight> d2_sorted = d2;
      std::sort(d2_sorted.begin(), d2_sorted.end());
      EXPECT_EQ(d2_sorted, expected);

      // Type 1: exact distances returned, ascending, correct.
      const KnnResult t1 =
          SignatureKnnQuery(*index, n, k, KnnResultType::kType1);
      EXPECT_EQ(t1.distances, expected) << "type1 n=" << n << " k=" << k;
      ASSERT_EQ(t1.objects.size(), t1.distances.size());
      for (size_t i = 0; i < t1.objects.size(); ++i) {
        EXPECT_EQ(truth[t1.objects[i]][n], t1.distances[i]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnnPropertyTest,
                         ::testing::Values(1, 11, 31));

// What `refine = false` must return: the first k objects in (category,
// object id) order, each at its category midpoint, for every result type.
KnnResult CategoryOnlyKnn(const SignatureIndex& index, NodeId n, size_t k) {
  const SignatureRow row = testing_util::StagedRow(index, n);
  std::vector<std::pair<int, uint32_t>> order;
  for (uint32_t o = 0; o < row.size(); ++o) {
    order.push_back({row[o].category, o});
  }
  std::sort(order.begin(), order.end());
  order.resize(std::min(k, order.size()));
  KnnResult expected;
  for (const auto& [category, o] : order) {
    expected.objects.push_back(o);
    expected.distances.push_back(index.partition().Midpoint(category));
  }
  return expected;
}

TEST(KnnQueryTest, CategoryOnlyMatchesTheCategoryRule) {
  for (const testing_util::CategoryOnlyCase& c :
       testing_util::CategoryOnlyCases()) {
    const auto index =
        BuildSignatureIndex(c.graph, c.objects, {.t = 5, .c = 2});
    const size_t num_objects = index->num_objects();
    for (const simd::SimdLevel level : simd::AvailableLevels()) {
      const simd::SimdOverride pin(level);
      ASSERT_TRUE(pin.applied());
      for (const NodeId n : testing_util::SampleNodes(c.graph, 10, 5)) {
        for (const size_t k : {size_t{1}, size_t{3}, size_t{8}, num_objects,
                               num_objects + 5}) {
          const KnnResult expected = CategoryOnlyKnn(*index, n, k);
          for (const KnnResultType type :
               {KnnResultType::kType1, KnnResultType::kType2,
                KnnResultType::kType3}) {
            const KnnResult got =
                SignatureKnnQuery(*index, n, k, type, /*refine=*/false);
            EXPECT_EQ(got.objects, expected.objects)
                << c.name << " " << simd::SimdLevelName(level) << " n=" << n
                << " k=" << k << " type=" << static_cast<int>(type);
            EXPECT_EQ(got.distances, expected.distances)
                << c.name << " " << simd::SimdLevelName(level) << " n=" << n
                << " k=" << k << " type=" << static_cast<int>(type);
            EXPECT_FALSE(got.deadline_exceeded);
          }
        }
      }
    }
  }
}

TEST(KnnQueryTest, LargeKSortsEverything) {
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 300, .seed = 6});
  const std::vector<NodeId> objects = UniformDataset(g, 0.1, 6);
  const auto index = BuildSignatureIndex(g, objects, {.t = 5, .c = 2});
  const auto truth = testing_util::BruteForceDistances(g, objects);
  const NodeId n = 17;
  const KnnResult r = SignatureKnnQuery(*index, n, objects.size(),
                                        KnnResultType::kType2);
  ASSERT_EQ(r.objects.size(), objects.size());
  for (size_t i = 1; i < r.objects.size(); ++i) {
    EXPECT_LE(truth[r.objects[i - 1]][n], truth[r.objects[i]][n]);
  }
}

}  // namespace
}  // namespace dsig
