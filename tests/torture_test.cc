// Model-based torture test: a long random interleaving of graph updates,
// queries of every kind, and persistence round-trips, validated after every
// step against a brute-force oracle. This is the closest thing to running
// the whole system in production for a week.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "core/distance_ops.h"
#include "core/signature_builder.h"
#include "core/update.h"
#include "graph/graph_generator.h"
#include "io/persistence.h"
#include "query/aggregate_query.h"
#include "query/knn_query.h"
#include "query/range_query.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "workload/dataset_generator.h"

namespace dsig {
namespace {

uint64_t FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size < 0 ? 0 : static_cast<uint64_t>(size);
}

class Oracle {
 public:
  Oracle(const RoadNetwork* graph, const std::vector<NodeId>* objects)
      : graph_(graph), objects_(objects) {}

  void Refresh() {
    truth_ = testing_util::BruteForceDistances(*graph_, *objects_);
  }

  Weight Distance(NodeId n, uint32_t o) const { return truth_[o][n]; }

  std::vector<uint32_t> Range(NodeId n, Weight eps) const {
    std::vector<uint32_t> result;
    for (uint32_t o = 0; o < truth_.size(); ++o) {
      if (truth_[o][n] <= eps) result.push_back(o);
    }
    return result;
  }

  std::vector<Weight> KnnDistances(NodeId n, size_t k) const {
    std::vector<Weight> d;
    for (const auto& row : truth_) d.push_back(row[n]);
    std::sort(d.begin(), d.end());
    d.resize(std::min(k, d.size()));
    return d;
  }

 private:
  const RoadNetwork* graph_;
  const std::vector<NodeId>* objects_;
  std::vector<std::vector<Weight>> truth_;
};

class TortureTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TortureTest, RandomOperationSoak) {
  const uint64_t seed = GetParam();
  RoadNetwork graph = MakeRandomPlanar({.num_nodes = 220, .seed = seed});
  const std::vector<NodeId> objects = UniformDataset(graph, 0.06, seed);
  auto index = BuildSignatureIndex(graph, objects, {.t = 5, .c = 2});
  SignatureUpdater updater(&graph, index.get());
  Oracle oracle(&graph, &objects);
  oracle.Refresh();
  Random rng(seed * 1000 + 77);

  const std::string snapshot =
      std::string(::testing::TempDir()) + "/torture_" +
      std::to_string(seed) + ".idx";

  for (int step = 0; step < 120; ++step) {
    const int action = static_cast<int>(rng.NextUint64(10));
    const NodeId q = static_cast<NodeId>(rng.NextUint64(graph.num_nodes()));
    switch (action) {
      case 0: {  // weight change
        const EdgeId e =
            static_cast<EdgeId>(rng.NextUint64(graph.num_edge_slots()));
        if (graph.edge_removed(e)) break;
        updater.SetEdgeWeight(e, rng.NextInt(1, 10));
        oracle.Refresh();
        break;
      }
      case 1: {  // local road insertion
        const NodeId u =
            static_cast<NodeId>(rng.NextUint64(graph.num_nodes()));
        NodeId v = static_cast<NodeId>(rng.NextUint64(graph.num_nodes()));
        if (u == v) break;
        updater.AddEdge(u, v, rng.NextInt(1, 10));
        oracle.Refresh();
        break;
      }
      case 2: {  // exact distance spot checks
        for (int i = 0; i < 5; ++i) {
          const auto o =
              static_cast<uint32_t>(rng.NextUint64(objects.size()));
          ASSERT_EQ(ExactDistance(*index, q, o), oracle.Distance(q, o))
              << "step " << step;
        }
        break;
      }
      case 3: {  // range query
        const Weight eps = static_cast<Weight>(rng.NextInt(0, 60));
        ASSERT_EQ(SignatureRangeQuery(*index, q, eps).objects,
                  oracle.Range(q, eps))
            << "step " << step << " eps " << eps;
        break;
      }
      case 4: {  // kNN type 1
        const size_t k = 1 + rng.NextUint64(8);
        ASSERT_EQ(
            SignatureKnnQuery(*index, q, k, KnnResultType::kType1).distances,
            oracle.KnnDistances(q, k))
            << "step " << step << " k " << k;
        break;
      }
      case 5: {  // kNN type 2 ordering
        const size_t k = 1 + rng.NextUint64(8);
        const KnnResult r =
            SignatureKnnQuery(*index, q, k, KnnResultType::kType2);
        std::vector<Weight> d;
        for (const uint32_t o : r.objects) d.push_back(oracle.Distance(q, o));
        ASSERT_TRUE(std::is_sorted(d.begin(), d.end())) << "step " << step;
        break;
      }
      case 6: {  // count aggregate
        const Weight eps = static_cast<Weight>(rng.NextInt(0, 50));
        ASSERT_EQ(SignatureCountQuery(*index, q, eps).count,
                  oracle.Range(q, eps).size())
            << "step " << step;
        break;
      }
      case 7: {  // persistence round trip mid-life
        ASSERT_TRUE(SaveSignatureIndex(*index, snapshot).ok());
        // Corruption drill first: flipping any single byte of the snapshot
        // must turn the load into a clean error, never an abort or a
        // silently-wrong index. (The original file on disk is untouched —
        // the flip rides in as a deterministic read fault.)
        const uint64_t file_bytes = FileSize(snapshot);
        ASSERT_GT(file_bytes, 0u);
        const auto corrupt = LoadSignatureIndex(
            graph, snapshot,
            {.faults = {.flip_byte = rng.NextUint64(file_bytes),
                        .flip_mask = static_cast<uint8_t>(
                            1u << rng.NextUint64(8))}});
        ASSERT_FALSE(corrupt.ok()) << "step " << step;
        const auto truncated = LoadSignatureIndex(
            graph, snapshot,
            {.faults = {.truncate_at = rng.NextUint64(file_bytes)}});
        ASSERT_FALSE(truncated.ok()) << "step " << step;
        auto loaded_or = LoadSignatureIndex(graph, snapshot);
        ASSERT_TRUE(loaded_or.ok())
            << "step " << step << ": " << loaded_or.status();
        auto loaded = std::move(loaded_or).value();
        loaded->RebuildForest();
        // The reloaded index answers identically; keep using it so the soak
        // also exercises the rebuilt forest.
        index = std::move(loaded);
        updater = SignatureUpdater(&graph, index.get());
        break;
      }
      case 8: {  // comparison coherence
        const auto a = static_cast<uint32_t>(rng.NextUint64(objects.size()));
        const auto b = static_cast<uint32_t>(rng.NextUint64(objects.size()));
        RowStage row;
        index->ReadRowStaged(q, &row);
        const CompareResult r = ExactCompare(*index, q, a, b, row);
        const Weight da = oracle.Distance(q, a), db = oracle.Distance(q, b);
        if (da < db) {
          ASSERT_EQ(r, CompareResult::kLess) << "step " << step;
        } else if (da > db) {
          ASSERT_EQ(r, CompareResult::kGreater) << "step " << step;
        } else {
          ASSERT_EQ(r, CompareResult::kEqual) << "step " << step;
        }
        break;
      }
      default: {  // approximate retrieval containment
        const auto o = static_cast<uint32_t>(rng.NextUint64(objects.size()));
        const Weight eps = static_cast<Weight>(rng.NextInt(1, 50));
        const DistanceRange r = ApproximateDistance(*index, q, o, {eps, eps});
        ASSERT_LE(r.lb, oracle.Distance(q, o)) << "step " << step;
        if (r.lb != r.ub && r.ub != kInfiniteWeight) {
          ASSERT_GT(r.ub, oracle.Distance(q, o)) << "step " << step;
        }
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TortureTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace dsig
