#include "oracle.h"

#include <gtest/gtest.h>

#include "graph/graph_generator.h"

namespace servebench {
namespace {

using dsig::serve::Degradation;
using dsig::serve::Response;

// 5x5 unit grid. The query node is the centre (12); objects 0-3 sit at its
// four neighbours (all at distance 1, a four-way tie) and object 4 at the
// corner node 0 (distance 4).
class OracleTest : public ::testing::Test {
 protected:
  OracleTest()
      : graph_(dsig::MakeGrid({.width = 5, .height = 5})),
        oracle_(graph_, {7, 11, 13, 17, 0}) {}

  static Response Knn(std::vector<uint32_t> objects,
                      std::vector<double> distances = {}) {
    Response r;
    r.objects = std::move(objects);
    r.distances = std::move(distances);
    return r;
  }

  static Response Join(const PairList& pairs) {
    Response r;
    for (const auto& [a, b] : pairs) {
      r.pair_left.push_back(a);
      r.pair_right.push_back(b);
    }
    return r;
  }

  static constexpr NodeId kCentre = 12;
  dsig::RoadNetwork graph_;
  Oracle oracle_;
};

TEST_F(OracleTest, DistancesComeFromDijkstra) {
  EXPECT_EQ(oracle_.Distance(0, kCentre), 1);
  EXPECT_EQ(oracle_.Distance(4, kCentre), 4);
  EXPECT_EQ(oracle_.Distance(4, 24), 8);
}

TEST_F(OracleTest, AcceptsAnyPermutationOfTiedKnnAnswers) {
  for (const int type : {1, 2, 3}) {
    for (const std::vector<uint32_t>& pick :
         {std::vector<uint32_t>{0, 1}, {3, 2}, {1, 3}, {2, 0}}) {
      const Response r =
          Knn(pick, type == 1 ? std::vector<double>{1, 1}
                              : std::vector<double>{});
      EXPECT_EQ(oracle_.CheckKnn(kCentre, 2, type, r), "") << "type " << type;
    }
  }
  EXPECT_EQ(oracle_.CheckKnn(kCentre, 5, 2, Knn({2, 0, 3, 1, 4})), "");
}

TEST_F(OracleTest, RejectsASwappedKnnObject) {
  EXPECT_NE(oracle_.CheckKnn(kCentre, 2, 3, Knn({0, 4})), "");
  EXPECT_NE(oracle_.CheckKnn(kCentre, 2, 1, Knn({0, 4}, {1, 1})), "");
  // Type 2 must come in distance order.
  EXPECT_NE(oracle_.CheckKnn(kCentre, 5, 2, Knn({4, 0, 1, 2, 3})), "");
}

TEST_F(OracleTest, RejectsADistanceOffByOne) {
  EXPECT_NE(oracle_.CheckKnn(kCentre, 2, 1, Knn({0, 1}, {1, 2})), "");
  EXPECT_NE(
      oracle_.CheckKnn(kCentre, 5, 1, Knn({0, 1, 2, 3, 4}, {1, 1, 1, 1, 5})),
      "");
}

TEST_F(OracleTest, RejectsAMissingOrExtraRangeMember) {
  EXPECT_EQ(oracle_.CheckRange(kCentre, 1, Knn({3, 0, 1, 2})), "");
  EXPECT_NE(oracle_.CheckRange(kCentre, 1, Knn({0, 1, 2})), "");
  EXPECT_NE(oracle_.CheckRange(kCentre, 1, Knn({0, 1, 2, 3, 4})), "");
}

TEST_F(OracleTest, RejectsAnExtraJoinPair) {
  // d(0, 1) = 2 (neighbours 7 and 11 of the centre are diagonal).
  const PairList expected = oracle_.JoinPairs(2);
  ASSERT_FALSE(expected.empty());
  PairList shuffled(expected.rbegin(), expected.rend());
  EXPECT_EQ(CheckJoin(expected, Join(shuffled)), "");
  PairList extra = expected;
  extra.emplace_back(0, 4);
  EXPECT_NE(CheckJoin(expected, Join(extra)), "");
  PairList missing(expected.begin() + 1, expected.end());
  EXPECT_NE(CheckJoin(expected, Join(missing)), "");
}

TEST_F(OracleTest, RejectsDegradedOrNonOkAnswers) {
  Response degraded = Knn({0, 1}, {1, 1});
  degraded.degradation = Degradation::kOverload;
  EXPECT_NE(oracle_.CheckKnn(kCentre, 2, 1, degraded), "");
  Response fault = Knn({3, 0, 1, 2});
  fault.degradation = Degradation::kDecodeFault;
  EXPECT_NE(oracle_.CheckRange(kCentre, 1, fault), "");
  Response partial = Knn({0});
  partial.status = dsig::serve::ResponseStatus::kDeadlineExceeded;
  EXPECT_NE(CheckKnnShape(5, 1, 3, partial), "");
}

TEST_F(OracleTest, ShapeChecksCatchStructuralDamage) {
  EXPECT_EQ(CheckKnnShape(5, 2, 1, Knn({4, 0}, {1, 4})), "");
  EXPECT_NE(CheckKnnShape(5, 2, 3, Knn({1, 1})), "");
  EXPECT_NE(CheckKnnShape(5, 2, 3, Knn({1, 5})), "");
  EXPECT_NE(CheckKnnShape(5, 2, 1, Knn({1, 0}, {4, 1})), "");
  EXPECT_NE(CheckKnnShape(5, 3, 3, Knn({1, 0})), "");
}

}  // namespace
}  // namespace servebench
