// Deadline propagation: the util/deadline.h primitives, the query layer's
// typed partial results, and the "an expired request costs nothing"
// guarantee the serving front-end depends on.
#include "util/deadline.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/distance_ops.h"
#include "core/signature_builder.h"
#include "graph/ccam.h"
#include "graph/graph_generator.h"
#include "query/join_query.h"
#include "query/knn_query.h"
#include "query/range_query.h"
#include "storage/buffer_manager.h"
#include "storage/network_store.h"
#include "workload/dataset_generator.h"

namespace dsig {
namespace {

TEST(DeadlineTest, DefaultIsInfinite) {
  const Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_millis(), 1e12);
}

TEST(DeadlineTest, NonPositiveBudgetIsAlreadyExpired) {
  EXPECT_TRUE(Deadline::AfterMillis(0).expired());
  EXPECT_TRUE(Deadline::AfterMillis(-5).expired());
  EXPECT_LE(Deadline::AfterMillis(-5).remaining_millis(), 0);
}

TEST(DeadlineTest, FutureDeadlineNotExpired) {
  const Deadline d = Deadline::AfterMillis(60'000);
  EXPECT_FALSE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_millis(), 59'000);
}

TEST(DeadlineTest, AmbientDefaultIsInfiniteAndFree) {
  EXPECT_TRUE(CurrentDeadline().infinite());
  EXPECT_FALSE(DeadlineExpired());
}

TEST(DeadlineTest, ScopesNestAndRestore) {
  {
    const DeadlineScope outer(Deadline::AfterMillis(60'000));
    EXPECT_FALSE(CurrentDeadline().infinite());
    EXPECT_FALSE(DeadlineExpired());
    {
      // Inner scope may tighten to already-expired...
      const DeadlineScope inner(Deadline::AfterMillis(-1));
      EXPECT_TRUE(DeadlineExpired());
      {
        // ...and a cache-filling shield may loosen back to infinite.
        const DeadlineScope shield(Deadline::Infinite());
        EXPECT_FALSE(DeadlineExpired());
      }
      EXPECT_TRUE(DeadlineExpired());
    }
    EXPECT_FALSE(DeadlineExpired());
  }
  EXPECT_TRUE(CurrentDeadline().infinite());
}

TEST(DeadlineTest, FailAfterSeamOnlyAppliesUnderFiniteDeadline) {
  SetDeadlineCheckFailAfter(0);
  // No finite ambient deadline: the seam must stay inert.
  EXPECT_FALSE(DeadlineExpired());
  {
    const DeadlineScope scope(Deadline::AfterMillis(60'000));
    EXPECT_TRUE(DeadlineExpired());   // seam fires on the first real check
    EXPECT_TRUE(DeadlineExpired());   // and latches
  }
  SetDeadlineCheckFailAfter(-1);
  EXPECT_FALSE(DeadlineExpired());
}

// --- Query-layer behaviour --------------------------------------------------

struct Fixture {
  RoadNetwork graph = MakeRandomPlanar({.num_nodes = 400, .seed = 7});
  std::vector<NodeId> objects = UniformDataset(graph, 0.05, 7);
  std::unique_ptr<SignatureIndex> index =
      BuildSignatureIndex(graph, objects, {.t = 5, .c = 2});
};

TEST(QueryDeadlineTest, ExpiredDeadlineNeverTouchesTheBufferPool) {
  Fixture f;
  BufferManager buffer(0);
  const std::vector<NodeId> order = ComputeCcamOrder(f.graph, 64);
  const NetworkStore network(f.graph, order, &buffer);
  f.index->AttachStorage(&buffer, &network, order);

  const uint64_t before = buffer.stats().logical_accesses;
  const DeadlineScope scope(Deadline::AfterMillis(-1));

  const KnnResult knn =
      SignatureKnnQuery(*f.index, 3, 5, KnnResultType::kType1);
  EXPECT_TRUE(knn.deadline_exceeded);
  EXPECT_TRUE(knn.objects.empty());

  const RangeQueryResult range = SignatureRangeQuery(*f.index, 3, 100);
  EXPECT_TRUE(range.deadline_exceeded);
  EXPECT_TRUE(range.objects.empty());

  const JoinResult join = SignatureEpsilonJoin(*f.index, *f.index, 3, 100);
  EXPECT_TRUE(join.deadline_exceeded);
  EXPECT_TRUE(join.pairs.empty());

  // The whole point: a hopeless request charges zero pages.
  EXPECT_EQ(buffer.stats().logical_accesses, before);
}

TEST(QueryDeadlineTest, KnnMidQueryExpiryYieldsWellFormedPartial) {
  Fixture f;
  const NodeId n = 10;
  const KnnResult exact =
      SignatureKnnQuery(*f.index, n, 8, KnnResultType::kType1);
  ASSERT_EQ(exact.objects.size(), 8u);

  // Expiry can land at any phase; sweep seam points to hit several. Each
  // partial must be one of the two documented shapes:
  //   * membership-only (distances empty): the exact k-NN set, unranked;
  //   * aligned prefix: every reported distance is a true exact distance.
  for (const int fail_after : {0, 2, 4, 8, 16, 32}) {
    const DeadlineScope scope(Deadline::AfterMillis(60'000));
    SetDeadlineCheckFailAfter(fail_after);
    const KnnResult partial =
        SignatureKnnQuery(*f.index, n, 8, KnnResultType::kType1);
    SetDeadlineCheckFailAfter(-1);
    if (!partial.deadline_exceeded) {
      // Seam exhausted after the query finished whole; must equal exact.
      EXPECT_EQ(partial.objects, exact.objects);
      continue;
    }
    EXPECT_LE(partial.objects.size(), 8u);
    if (partial.distances.empty()) {
      // Membership-only partial: still a subset of the exact answer set.
      for (const uint32_t o : partial.objects) {
        EXPECT_NE(std::find(exact.objects.begin(), exact.objects.end(), o),
                  exact.objects.end())
            << "fail_after=" << fail_after << " object " << o;
      }
    } else {
      ASSERT_EQ(partial.objects.size(), partial.distances.size());
      for (size_t i = 0; i < partial.objects.size(); ++i) {
        const size_t at = static_cast<size_t>(
            std::find(exact.objects.begin(), exact.objects.end(),
                      partial.objects[i]) -
            exact.objects.begin());
        ASSERT_LT(at, exact.objects.size()) << "fail_after=" << fail_after;
        EXPECT_DOUBLE_EQ(partial.distances[i], exact.distances[at]);
      }
    }
  }
}

TEST(QueryDeadlineTest, RangeMidQueryExpiryYieldsConfirmedSubset) {
  Fixture f;
  const NodeId n = 42;
  const KnnResult anchor =
      SignatureKnnQuery(*f.index, n, 5, KnnResultType::kType1);
  ASSERT_FALSE(anchor.distances.empty());
  const Weight epsilon = anchor.distances.back();

  const RangeQueryResult exact = SignatureRangeQuery(*f.index, n, epsilon);
  EXPECT_FALSE(exact.deadline_exceeded);

  const DeadlineScope scope(Deadline::AfterMillis(60'000));
  SetDeadlineCheckFailAfter(2);
  const RangeQueryResult partial = SignatureRangeQuery(*f.index, n, epsilon);
  SetDeadlineCheckFailAfter(-1);

  EXPECT_TRUE(partial.deadline_exceeded);
  EXPECT_LE(partial.objects.size(), exact.objects.size());
  // Every confirmed object really is in the exact answer — partial means
  // smaller, never wrong.
  for (const uint32_t o : partial.objects) {
    EXPECT_NE(std::find(exact.objects.begin(), exact.objects.end(), o),
              exact.objects.end())
        << "object " << o;
  }
}

TEST(QueryDeadlineTest, JoinMidQueryExpiryYieldsConfirmedSubset) {
  Fixture f;
  const NodeId n = 99;
  const KnnResult anchor =
      SignatureKnnQuery(*f.index, n, 3, KnnResultType::kType1);
  ASSERT_FALSE(anchor.distances.empty());
  const Weight epsilon = 2 * anchor.distances.back();

  const JoinResult exact = SignatureEpsilonJoin(*f.index, *f.index, n, epsilon);
  const DeadlineScope scope(Deadline::AfterMillis(60'000));
  SetDeadlineCheckFailAfter(2);
  const JoinResult partial =
      SignatureEpsilonJoin(*f.index, *f.index, n, epsilon);
  SetDeadlineCheckFailAfter(-1);

  EXPECT_TRUE(partial.deadline_exceeded);
  EXPECT_LE(partial.pairs.size(), exact.pairs.size());
  for (const JoinPair& pair : partial.pairs) {
    const bool found =
        std::any_of(exact.pairs.begin(), exact.pairs.end(),
                    [&](const JoinPair& e) {
                      return e.left == pair.left && e.right == pair.right;
                    });
    EXPECT_TRUE(found) << pair.left << "," << pair.right;
  }
}

TEST(QueryDeadlineTest, SortAbortLeavesAPermutation) {
  Fixture f;
  const NodeId n = 5;
  RowStage row;
  f.index->ReadRowStaged(n, &row);
  std::vector<uint32_t> bucket(f.index->num_objects());
  for (uint32_t o = 0; o < bucket.size(); ++o) bucket[o] = o;
  const std::vector<uint32_t> original = bucket;

  const DeadlineScope scope(Deadline::AfterMillis(60'000));
  SetDeadlineCheckFailAfter(0);  // expire on the very first check
  SortByDistance(*f.index, n, row, &bucket);
  SetDeadlineCheckFailAfter(-1);

  // Aborting mid-sort must lose or duplicate nothing: same multiset.
  std::vector<uint32_t> a = original, b = bucket;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace dsig
