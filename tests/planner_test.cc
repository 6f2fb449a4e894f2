// The planner's identity contract (query/planner.h): routing exact-distance
// work through the hub-label tier must not perturb a single result bit
// relative to the signature-only path, at every SIMD dispatch level; the
// route only shows up in the op counters. Plus: the sticky stale latch
// demotes labels after any applied update, and NoLabelsOverride pins the
// planner off.
#include "query/planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "core/hub_labels.h"
#include "core/row_stage.h"
#include "core/signature_builder.h"
#include "core/update.h"
#include "graph/graph_generator.h"
#include "obs/op_counters.h"
#include "query/closest_pair.h"
#include "query/join_query.h"
#include "query/knn_query.h"
#include "tests/test_util.h"
#include "util/simd/simd.h"
#include "util/thread_pool.h"
#include "workload/dataset_generator.h"

namespace dsig {
namespace {

std::unique_ptr<SignatureIndex> BuildWithLabels(const RoadNetwork& g,
                                                const std::vector<NodeId>& o) {
  auto index = BuildSignatureIndex(g, o, {.t = 5, .c = 2});
  index->set_hub_labels(HubLabels::Build(g, {}, &ThreadPool::Global()));
  return index;
}

// The forced-no-labels CI leg (DSIG_FORCE_NO_LABELS=1) pins every planner
// decision off the tier for the whole process. Tests that assert the label
// route is *taken* are vacuous under the pin and skip; the identity tests
// run everywhere (that is the pin's whole point).
bool LabelRoutePinnedOff() {
  const char* v = std::getenv("DSIG_FORCE_NO_LABELS");
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

#define SKIP_IF_LABELS_PINNED_OFF()                                       \
  if (LabelRoutePinnedOff()) {                                            \
    GTEST_SKIP() << "DSIG_FORCE_NO_LABELS pins the label route off";      \
  }

TEST(PlannerTest, LabelsUsableRespectsAttachmentStaleAndOverride) {
  SKIP_IF_LABELS_PINNED_OFF();
  const RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  const auto bare = BuildSignatureIndex(g, {1, 5}, {.t = 4, .c = 2});
  EXPECT_FALSE(LabelsUsable(*bare));

  const auto index = BuildWithLabels(g, {1, 5});
  EXPECT_TRUE(LabelsUsable(*index));
  {
    NoLabelsOverride off;
    EXPECT_FALSE(LabelsUsable(*index));
    {
      NoLabelsOverride nested;
      EXPECT_FALSE(LabelsUsable(*index));
    }
    EXPECT_FALSE(LabelsUsable(*index));
  }
  EXPECT_TRUE(LabelsUsable(*index));

  index->InvalidateHubLabels();
  EXPECT_FALSE(LabelsUsable(*index));  // sticky: no way back but a rebuild
  index->set_hub_labels(HubLabels::Build(g, {}, nullptr));
  EXPECT_TRUE(LabelsUsable(*index));
}

TEST(PlannerTest, RoutedDistancesMatchBothRoutesExactly) {
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 400, .seed = 91});
  const std::vector<NodeId> objects = UniformDataset(g, 0.06, 91);
  const auto index = BuildWithLabels(g, objects);
  const auto truth = testing_util::BruteForceDistances(g, objects);

  for (const NodeId n : testing_util::SampleNodes(g, 20, 91)) {
    for (uint32_t o = 0; o < objects.size(); ++o) {
      const Weight labeled = RoutedObjectDistance(*index, n, o, nullptr);
      Weight chased;
      {
        NoLabelsOverride off;
        chased = RoutedObjectDistance(*index, n, o, nullptr);
      }
      ASSERT_EQ(labeled, chased) << "n=" << n << " o=" << o;
      ASSERT_EQ(labeled, truth[o][n]) << "n=" << n << " o=" << o;
    }
  }
}

TEST(PlannerTest, RouteCountersChargeTheRouteTaken) {
  SKIP_IF_LABELS_PINNED_OFF();
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 300, .seed = 37});
  const std::vector<NodeId> objects = UniformDataset(g, 0.08, 37);
  const auto index = BuildWithLabels(g, objects);

  ResetOpCounters();
  (void)RoutedObjectDistance(*index, 7, 0, nullptr);
  EXPECT_EQ(GlobalOpCounters().label_distances, 1u);
  EXPECT_EQ(GlobalOpCounters().label_demotions, 0u);

  ResetOpCounters();
  {
    NoLabelsOverride off;
    (void)RoutedObjectDistance(*index, 7, 0, nullptr);
  }
  EXPECT_EQ(GlobalOpCounters().label_distances, 0u);
  EXPECT_EQ(GlobalOpCounters().label_demotions, 1u);

  // A near object with a read row: usable labels answer it too, even where
  // the labels are long (a 50×50 grid averages 42 entries a node) and the
  // object is zero hops away.
  const RoadNetwork grid = MakeGrid({.width = 50, .height = 50});
  const auto grid_index = BuildWithLabels(grid, UniformDataset(grid, 0.02, 37));
  static thread_local RowStage stage;
  grid_index->ReadRowStaged(grid_index->object_node(0), &stage);
  const SignatureEntry initial = stage.entry(0);
  ResetOpCounters();
  const Weight d = RoutedObjectDistance(
      *grid_index, grid_index->object_node(0), 0, &initial);
  EXPECT_EQ(d, 0);
  EXPECT_EQ(GlobalOpCounters().label_distances, 1u);
  EXPECT_EQ(GlobalOpCounters().label_demotions, 0u);
}

// Both label counters count exact distances, so planner.label_share is one
// unit: a demoted sort over N objects adds N demotions, a demoted closest
// pair one per refined pair, and on fresh labels the same calls add the
// same counts as label_distances.
TEST(PlannerTest, LabelCountersCountDistancesOnEveryRoute) {
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 300, .seed = 41});
  const std::vector<NodeId> left_objects = UniformDataset(g, 0.05, 41);
  std::vector<NodeId> right_objects;
  for (const NodeId n : UniformDataset(g, 0.08, 42)) {
    if (std::find(left_objects.begin(), left_objects.end(), n) ==
        left_objects.end()) {
      right_objects.push_back(n);
    }
  }
  const auto left = BuildSignatureIndex(g, left_objects, {.t = 5, .c = 2});
  const auto right = BuildWithLabels(g, right_objects);
  const NodeId n = 17;
  static thread_local RowStage stage;
  std::vector<uint32_t> all(right->num_objects());
  std::iota(all.begin(), all.end(), 0);

  struct Counts {
    uint64_t distances, demotions, sorted, refined;
  };
  const auto run = [&] {
    Counts c{};
    ResetOpCounters();
    std::vector<uint32_t> objects = all;
    right->ReadRowStaged(n, &stage);
    RoutedSortByDistance(*right, n, stage, &objects);
    c.sorted = objects.size();
    c.refined = SignatureClosestPair(*left, *right).refined;
    c.distances = GlobalOpCounters().label_distances;
    c.demotions = GlobalOpCounters().label_demotions;
    return c;
  };

  if (!LabelRoutePinnedOff()) {
    const Counts fresh = run();
    ASSERT_GT(fresh.refined, 0u);
    EXPECT_EQ(fresh.distances, fresh.sorted + fresh.refined);
    EXPECT_EQ(fresh.demotions, 0u);
  }
  Counts pinned;
  {
    NoLabelsOverride off;
    pinned = run();
  }
  ASSERT_GT(pinned.refined, 0u);
  EXPECT_EQ(pinned.distances, 0u);
  EXPECT_EQ(pinned.demotions, pinned.sorted + pinned.refined);

  right->InvalidateHubLabels();
  const Counts stale = run();
  EXPECT_EQ(stale.distances, 0u);
  EXPECT_EQ(stale.demotions, stale.sorted + stale.refined);
  EXPECT_EQ(stale.refined, pinned.refined);
}

// The headline acceptance check: every query family's results are
// bit-identical between the label route and the signature-only route, at
// every compiled SIMD dispatch level.
TEST(PlannerTest, QueriesAreIdenticalWithAndWithoutLabelsAtEveryLevel) {
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 400, .seed = 23});
  const std::vector<NodeId> objects = UniformDataset(g, 0.06, 23);
  const auto index = BuildWithLabels(g, objects);
  const std::vector<NodeId> nodes = testing_util::SampleNodes(g, 10, 23);

  for (const simd::SimdLevel level : simd::AvailableLevels()) {
    SCOPED_TRACE(simd::SimdLevelName(level));
    simd::SimdOverride pin(level);
    ASSERT_TRUE(pin.applied());
    for (const NodeId n : nodes) {
      KnnResult knn1_off, knn2_off;
      JoinResult join_off;
      {
        NoLabelsOverride off;
        knn1_off = SignatureKnnQuery(*index, n, 7, KnnResultType::kType1);
        knn2_off = SignatureKnnQuery(*index, n, 7, KnnResultType::kType2);
        join_off = SignatureEpsilonJoin(*index, *index, n, 18.0);
      }
      const KnnResult knn1 =
          SignatureKnnQuery(*index, n, 7, KnnResultType::kType1);
      const KnnResult knn2 =
          SignatureKnnQuery(*index, n, 7, KnnResultType::kType2);
      const JoinResult join = SignatureEpsilonJoin(*index, *index, n, 18.0);

      EXPECT_EQ(knn1.objects, knn1_off.objects) << "node " << n;
      EXPECT_EQ(knn1.distances, knn1_off.distances) << "node " << n;
      EXPECT_EQ(knn2.objects, knn2_off.objects) << "node " << n;
      ASSERT_EQ(join.pairs.size(), join_off.pairs.size()) << "node " << n;
      for (size_t i = 0; i < join.pairs.size(); ++i) {
        EXPECT_EQ(join.pairs[i].left, join_off.pairs[i].left);
        EXPECT_EQ(join.pairs[i].right, join_off.pairs[i].right);
      }
      EXPECT_EQ(join.pruned_by_categories, join_off.pruned_by_categories);
    }
    ClosestPairResult cp_off;
    {
      NoLabelsOverride off;
      cp_off = SignatureClosestPair(*index, *index);
    }
    const ClosestPairResult cp = SignatureClosestPair(*index, *index);
    EXPECT_EQ(cp.left, cp_off.left);
    EXPECT_EQ(cp.right, cp_off.right);
    EXPECT_EQ(cp.distance, cp_off.distance);
    EXPECT_EQ(cp.refined, cp_off.refined);
  }
}

TEST(PlannerTest, AppliedUpdateDemotesLabelsUntilRebuild) {
  SKIP_IF_LABELS_PINNED_OFF();
  RoadNetwork g = MakeRandomPlanar({.num_nodes = 250, .seed = 53});
  const std::vector<NodeId> objects = UniformDataset(g, 0.08, 53);
  auto index = BuildWithLabels(g, objects);
  ASSERT_TRUE(LabelsUsable(*index));

  // Reference results before the update (signature path, which stays
  // correct through updates).
  SignatureUpdater updater(&g, index.get());
  updater.AddEdge(3, 90, 2.0);
  EXPECT_TRUE(index->hub_labels()->stale());
  EXPECT_FALSE(LabelsUsable(*index));

  // Queries still run (demoted to the maintained signature path) and agree
  // with fresh ground truth on the mutated network.
  ResetOpCounters();
  const auto truth = testing_util::BruteForceDistances(g, objects);
  for (const NodeId n : testing_util::SampleNodes(g, 6, 53)) {
    const KnnResult r = SignatureKnnQuery(*index, n, 5, KnnResultType::kType1);
    for (size_t i = 0; i < r.objects.size(); ++i) {
      ASSERT_EQ(r.distances[i], truth[r.objects[i]][n]) << "node " << n;
    }
  }
  EXPECT_EQ(GlobalOpCounters().label_distances, 0u);
  EXPECT_GT(GlobalOpCounters().label_demotions, 0u);

  // A rebuild on the mutated graph re-enables the tier, and its distances
  // match the new network.
  index->set_hub_labels(HubLabels::Build(g, {}, &ThreadPool::Global()));
  ASSERT_TRUE(LabelsUsable(*index));
  for (uint32_t o = 0; o < objects.size(); ++o) {
    ASSERT_EQ(RoutedObjectDistance(*index, 11, o, nullptr), truth[o][11]);
  }
}

}  // namespace
}  // namespace dsig
