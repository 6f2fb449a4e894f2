#include "core/distance_ops.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/signature_builder.h"
#include "graph/graph_generator.h"
#include "tests/test_util.h"
#include "workload/dataset_generator.h"

namespace dsig {
namespace {

struct OpsFixture {
  // Heap-allocated: the index and forest keep pointers into the graph, so
  // its address must survive the fixture being moved around.
  std::unique_ptr<RoadNetwork> graph_holder;
  const RoadNetwork& graph() const { return *graph_holder; }
  std::vector<NodeId> objects;
  std::unique_ptr<SignatureIndex> index;
  std::vector<std::vector<Weight>> truth;  // truth[o][n]

  static OpsFixture MakeRandom(uint64_t seed, size_t nodes = 400,
                               double density = 0.05) {
    OpsFixture f;
    f.graph_holder = std::make_unique<RoadNetwork>(
        MakeRandomPlanar({.num_nodes = nodes, .seed = seed}));
    f.objects = UniformDataset(f.graph(), density, seed + 1);
    f.index = BuildSignatureIndex(f.graph(), f.objects, {.t = 5, .c = 2});
    f.truth = testing_util::BruteForceDistances(f.graph(), f.objects);
    return f;
  }
};

TEST(ExactDistanceTest, MatchesDijkstraOnSmallNetwork) {
  const RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  const std::vector<NodeId> objects = {1, 5, 6};
  const auto index = BuildSignatureIndex(g, objects, {.t = 4, .c = 2});
  const auto truth = testing_util::BruteForceDistances(g, objects);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    for (uint32_t o = 0; o < objects.size(); ++o) {
      EXPECT_EQ(ExactDistance(*index, n, o), truth[o][n])
          << "node " << n << " object " << o;
    }
  }
}

class ExactDistancePropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ExactDistancePropertyTest, MatchesDijkstraEverywhere) {
  const OpsFixture f = OpsFixture::MakeRandom(GetParam());
  for (NodeId n = 0; n < f.graph().num_nodes(); ++n) {
    for (uint32_t o = 0; o < f.objects.size(); ++o) {
      ASSERT_EQ(ExactDistance(*f.index, n, o), f.truth[o][n])
          << "node " << n << " object " << o;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactDistancePropertyTest,
                         ::testing::Values(1, 13, 77));

TEST(ApproximateDistanceTest, RangeAlwaysContainsTruth) {
  const OpsFixture f = OpsFixture::MakeRandom(5);
  for (const NodeId n : testing_util::SampleNodes(f.graph(), 30, 2)) {
    for (uint32_t o = 0; o < f.objects.size(); ++o) {
      for (const Weight eps : {5.0, 20.0, 60.0}) {
        const DistanceRange r =
            ApproximateDistance(*f.index, n, o, {eps, eps});
        EXPECT_LE(r.lb, f.truth[o][n]);
        if (r.ub != kInfiniteWeight && r.lb != r.ub) {
          EXPECT_LT(f.truth[o][n], r.ub);
        } else if (r.lb == r.ub) {
          EXPECT_EQ(r.lb, f.truth[o][n]);  // collapsed to exact
        }
        // The contract: no partial intersection with delta remains.
        EXPECT_FALSE(r.PartiallyIntersects({eps, eps}));
      }
    }
  }
}

TEST(RetrievalCursorTest, StepwiseRefinementTightens) {
  const OpsFixture f = OpsFixture::MakeRandom(6);
  const NodeId n = testing_util::SampleNodes(f.graph(), 1, 9)[0];
  RowStage row;
  f.index->ReadRowStaged(n, &row);
  for (uint32_t o = 0; o < std::min<size_t>(f.objects.size(), 10); ++o) {
    const SignatureEntry initial = row.entry(o);
    RetrievalCursor cursor(f.index.get(), n, o, &initial);
    // Invariant at every step: the range contains the true distance. (Lower
    // bounds are not monotone step-to-step — a hop can land on a node whose
    // category is coarser — but containment never breaks.)
    while (!cursor.exact()) {
      const DistanceRange r = cursor.range();
      EXPECT_LE(r.lb, f.truth[o][n]);
      if (r.ub != kInfiniteWeight) {
        EXPECT_GT(r.ub, f.truth[o][n]);
      }
      cursor.Step();
    }
    EXPECT_EQ(cursor.exact_distance(), f.truth[o][n]);
  }
}

TEST(RetrievalCursorTest, ObjectAtQueryNodeIsImmediatelyExact) {
  const RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  const auto index = BuildSignatureIndex(g, {3}, {.t = 4, .c = 2});
  RetrievalCursor cursor(index.get(), 3, 0, nullptr);
  EXPECT_TRUE(cursor.exact());
  EXPECT_EQ(cursor.exact_distance(), 0);
  EXPECT_FALSE(cursor.Step());
}

class ExactComparePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExactComparePropertyTest, AgreesWithTruth) {
  const OpsFixture f = OpsFixture::MakeRandom(GetParam(), 300, 0.06);
  for (const NodeId n : testing_util::SampleNodes(f.graph(), 15, GetParam())) {
    RowStage row;
    f.index->ReadRowStaged(n, &row);
    for (uint32_t a = 0; a < f.objects.size(); ++a) {
      for (uint32_t b = a + 1; b < f.objects.size(); ++b) {
        const CompareResult r = ExactCompare(*f.index, n, a, b, row);
        const Weight da = f.truth[a][n], db = f.truth[b][n];
        if (da < db) {
          EXPECT_EQ(r, CompareResult::kLess) << "n=" << n << " a=" << a
                                             << " b=" << b;
        } else if (da > db) {
          EXPECT_EQ(r, CompareResult::kGreater)
              << "n=" << n << " a=" << a << " b=" << b;
        } else {
          EXPECT_EQ(r, CompareResult::kEqual)
              << "n=" << n << " a=" << a << " b=" << b;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactComparePropertyTest,
                         ::testing::Values(2, 21, 55));

TEST(ApproximateCompareTest, DifferentCategoriesDecideImmediately) {
  const OpsFixture f = OpsFixture::MakeRandom(3);
  size_t checked = 0;
  for (const NodeId n : testing_util::SampleNodes(f.graph(), 20, 1)) {
    RowStage row;
    f.index->ReadRowStaged(n, &row);
    const uint8_t* categories = row.categories();
    for (uint32_t a = 0; a < f.objects.size() && checked < 500; ++a) {
      for (uint32_t b = a + 1; b < f.objects.size(); ++b) {
        if (categories[a] == categories[b]) continue;
        const CompareResult r = ApproximateCompare(*f.index, n, a, b, row);
        // Cross-category comparisons are exact by category ordering.
        const Weight da = f.truth[a][n], db = f.truth[b][n];
        EXPECT_EQ(r, da < db ? CompareResult::kLess : CompareResult::kGreater);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 100u);
}

TEST(ApproximateCompareTest, VotingIsMostlyRightWithinCategory) {
  // The observer heuristic is approximate; measure that decided votes are
  // mostly correct rather than demanding perfection.
  const OpsFixture f = OpsFixture::MakeRandom(4, 600, 0.05);
  size_t decided = 0, correct = 0;
  for (const NodeId n : testing_util::SampleNodes(f.graph(), 40, 8)) {
    RowStage row;
    f.index->ReadRowStaged(n, &row);
    const uint8_t* categories = row.categories();
    for (uint32_t a = 0; a < f.objects.size(); ++a) {
      for (uint32_t b = a + 1; b < f.objects.size(); ++b) {
        if (categories[a] != categories[b]) continue;
        const CompareResult r = ApproximateCompare(*f.index, n, a, b, row);
        if (r == CompareResult::kEqual) continue;  // abstained
        ++decided;
        const bool truth_less = f.truth[a][n] < f.truth[b][n];
        if ((r == CompareResult::kLess) == truth_less) ++correct;
      }
    }
  }
  if (decided > 20) {
    EXPECT_GT(static_cast<double>(correct) / decided, 0.6)
        << correct << "/" << decided;
  }
}

class SortPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SortPropertyTest, SortedOrderMatchesTrueDistances) {
  const OpsFixture f = OpsFixture::MakeRandom(GetParam(), 350, 0.06);
  for (const NodeId n : testing_util::SampleNodes(f.graph(), 10, GetParam())) {
    RowStage row;
    f.index->ReadRowStaged(n, &row);
    std::vector<uint32_t> objs(f.objects.size());
    for (uint32_t i = 0; i < objs.size(); ++i) objs[i] = i;
    SortByDistance(*f.index, n, row, &objs);
    for (size_t i = 1; i < objs.size(); ++i) {
      EXPECT_LE(f.truth[objs[i - 1]][n], f.truth[objs[i]][n])
          << "position " << i << " at node " << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SortPropertyTest,
                         ::testing::Values(3, 31, 99));

}  // namespace
}  // namespace dsig
