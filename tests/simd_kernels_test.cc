// Differential fuzzing of the SIMD query kernels against the scalar
// reference (util/simd). The scalar table is normative: every compiled
// variant (SSE4.2 / NEON) must reproduce its results bit for bit —
// extraction order, the fixed blocked-summation tree, NaN handling in the
// finite-compaction — on randomized inputs including empty rows, unaligned
// lengths straddling every vector-width boundary, and degenerate all-same
// lanes. A second tier pins each available dispatch level with SimdOverride
// and replays whole queries, proving the level is unobservable end to end.
#include "util/simd/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/row_stage.h"
#include "core/signature_builder.h"
#include "graph/graph_generator.h"
#include "query/aggregate_query.h"
#include "query/closest_pair.h"
#include "query/join_query.h"
#include "query/knn_query.h"
#include "query/range_query.h"
#include "query/reverse_knn.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "workload/dataset_generator.h"

namespace dsig {
namespace {

using simd::KernelTable;
using simd::SimdLevel;

std::vector<const KernelTable*> CompiledVariants() {
  std::vector<const KernelTable*> tables;
  for (const SimdLevel level : simd::AvailableLevels()) {
    switch (level) {
      case SimdLevel::kScalar:
        tables.push_back(simd::ScalarKernels());
        break;
      case SimdLevel::kSse42:
        tables.push_back(simd::Sse42Kernels());
        break;
      case SimdLevel::kNeon:
        tables.push_back(simd::NeonKernels());
        break;
    }
  }
  return tables;
}

// Lengths that straddle the 16-lane vector width and its multiples, plus
// awkward tails.
const size_t kLengths[] = {0,  1,  2,  3,  7,  15,  16,  17,  31,
                           32, 33, 47, 63, 64, 65,  100, 127, 128,
                           129, 255, 256, 257, 1000};

TEST(SimdKernelsTest, AtLeastScalarIsAvailable) {
  const std::vector<SimdLevel> levels = simd::AvailableLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), SimdLevel::kScalar);
  EXPECT_TRUE(std::is_sorted(levels.begin(), levels.end()));
  // One vector level per ISA at most: SSE4.2 on x86, NEON on aarch64.
  EXPECT_LE(levels.size(), 2u);
  for (const KernelTable* table : CompiledVariants()) {
    ASSERT_NE(table, nullptr);
  }
}

TEST(SimdKernelsTest, ByteKernelsMatchScalarOnRandomLanes) {
  const KernelTable* scalar = simd::ScalarKernels();
  const std::vector<const KernelTable*> variants = CompiledVariants();
  Random rng(1234);
  std::vector<uint8_t> lanes;
  std::vector<uint32_t> want, got;
  for (const size_t n : kLengths) {
    for (int round = 0; round < 8; ++round) {
      lanes.resize(n);
      // Mix narrow and full-range alphabets so runs of in-range lanes (the
      // dense-extraction path) and empty matches both occur.
      const int alphabet = round % 2 == 0 ? 8 : 256;
      for (size_t i = 0; i < n; ++i) {
        lanes[i] = static_cast<uint8_t>(rng.NextUint64(alphabet));
      }
      // Bounds include empty (lo >= hi), unbounded-above (hi = 256), and
      // narrow windows.
      const int lo = static_cast<int>(rng.NextUint64(300)) - 20;
      const int hi = lo + static_cast<int>(rng.NextUint64(300)) - 20;
      want.assign(n + 1, 0xDEAD);
      const size_t want_count =
          scalar->extract_in_range(lanes.data(), n, lo, hi, want.data());
      for (const KernelTable* table : variants) {
        SCOPED_TRACE(table->name);
        got.assign(n + 1, 0xBEEF);
        const size_t got_count =
            table->extract_in_range(lanes.data(), n, lo, hi, got.data());
        ASSERT_EQ(got_count, want_count) << "n=" << n << " lo=" << lo
                                         << " hi=" << hi;
        for (size_t i = 0; i < want_count; ++i) {
          ASSERT_EQ(got[i], want[i]) << "n=" << n << " lo=" << lo
                                     << " hi=" << hi << " at " << i;
        }
        EXPECT_EQ(table->count_in_range(lanes.data(), n, lo, hi), want_count);
        EXPECT_EQ(table->max_u8(lanes.data(), n),
                  scalar->max_u8(lanes.data(), n));
        EXPECT_EQ(table->min_u8(lanes.data(), n),
                  scalar->min_u8(lanes.data(), n));
      }
    }
  }
}

TEST(SimdKernelsTest, ByteKernelsOnDegenerateLanes) {
  const KernelTable* scalar = simd::ScalarKernels();
  std::vector<uint32_t> want(2000), got(2000);
  for (const KernelTable* table : CompiledVariants()) {
    SCOPED_TRACE(table->name);
    // Empty input: extraction finds nothing, extrema take their identities.
    EXPECT_EQ(table->extract_in_range(nullptr, 0, 0, 256, got.data()), 0u);
    EXPECT_EQ(table->count_in_range(nullptr, 0, 0, 256), 0u);
    EXPECT_EQ(table->max_u8(nullptr, 0), 0);
    EXPECT_EQ(table->min_u8(nullptr, 0), 0xFF);
    for (const size_t n : kLengths) {
      // All-same lanes: the all-match and no-match extraction extremes.
      for (const uint8_t value : {uint8_t{0}, uint8_t{7}, uint8_t{0xFF}}) {
        const std::vector<uint8_t> lanes(n, value);
        for (const auto& [lo, hi] : {std::pair<int, int>{value, value + 1},
                                    {value + 1, 256},
                                    {0, value},
                                    {0, 256}}) {
          const size_t want_count =
              scalar->extract_in_range(lanes.data(), n, lo, hi, want.data());
          const size_t got_count =
              table->extract_in_range(lanes.data(), n, lo, hi, got.data());
          ASSERT_EQ(got_count, want_count)
              << "n=" << n << " v=" << int{value} << " lo=" << lo;
          for (size_t i = 0; i < want_count; ++i) {
            ASSERT_EQ(got[i], want[i]);
          }
        }
      }
    }
  }
}

TEST(SimdKernelsTest, AggregateMatchesScalarBitForBit) {
  const KernelTable* scalar = simd::ScalarKernels();
  const std::vector<const KernelTable*> variants = CompiledVariants();
  Random rng(77);
  std::vector<double> values;
  for (const size_t n : kLengths) {
    for (int round = 0; round < 6; ++round) {
      values.resize(n);
      for (size_t i = 0; i < n; ++i) {
        // Wildly mixed magnitudes: with a naive re-association the sum
        // would drift, so this is what actually exercises the fixed
        // blocked-summation tree.
        const double magnitude = std::pow(10.0, rng.NextInt(-6, 6));
        values[i] = (rng.NextDouble() - 0.5) * magnitude;
      }
      double want_sum = 0, want_min = 0, want_max = 0;
      scalar->aggregate_f64(values.data(), n, &want_sum, &want_min, &want_max);
      for (const KernelTable* table : variants) {
        SCOPED_TRACE(table->name);
        double sum = 0, min = 0, max = 0;
        table->aggregate_f64(values.data(), n, &sum, &min, &max);
        // EXPECT_EQ, not NEAR: the summation tree is part of the contract.
        EXPECT_EQ(sum, want_sum) << "n=" << n;
        EXPECT_EQ(min, want_min) << "n=" << n;
        EXPECT_EQ(max, want_max) << "n=" << n;
      }
    }
  }
}

TEST(SimdKernelsTest, CompactFiniteMatchesScalarIncludingNaN) {
  const KernelTable* scalar = simd::ScalarKernels();
  const std::vector<const KernelTable*> variants = CompiledVariants();
  Random rng(99);
  std::vector<double> values, want, got;
  for (const size_t n : kLengths) {
    for (int round = 0; round < 6; ++round) {
      values.resize(n);
      for (size_t i = 0; i < n; ++i) {
        const uint64_t kind = rng.NextUint64(10);
        if (kind < 3) {
          values[i] = kInfiniteWeight;  // the table's "far" marker
        } else if (kind == 3) {
          values[i] = -kInfiniteWeight;  // finite per the != +inf contract
        } else if (kind == 4) {
          // NaN must survive compaction (scalar keeps v != +inf, and NaN
          // != +inf is true) — the unordered-compare regression check.
          values[i] = std::numeric_limits<double>::quiet_NaN();
        } else {
          values[i] = rng.NextDouble() * 1e3;
        }
      }
      want.assign(n + 1, -1);
      const size_t want_count =
          scalar->compact_finite_f64(values.data(), n, want.data());
      for (const KernelTable* table : variants) {
        SCOPED_TRACE(table->name);
        got.assign(n + 1, -2);
        const size_t got_count =
            table->compact_finite_f64(values.data(), n, got.data());
        ASSERT_EQ(got_count, want_count) << "n=" << n;
        for (size_t i = 0; i < want_count; ++i) {
          // Bit comparison so NaN == NaN and -0.0 != 0.0 distinctions hold.
          uint64_t want_bits, got_bits;
          static_assert(sizeof want_bits == sizeof want[i]);
          std::memcpy(&want_bits, &want[i], sizeof want_bits);
          std::memcpy(&got_bits, &got[i], sizeof got_bits);
          ASSERT_EQ(got_bits, want_bits) << "n=" << n << " at " << i;
        }
      }
    }
  }
}

TEST(SimdKernelsTest, LabelMergeMatchesScalarOnRandomLabels) {
  const KernelTable* scalar = simd::ScalarKernels();
  const std::vector<const KernelTable*> variants = CompiledVariants();
  Random rng(4242);
  std::vector<uint32_t> ah, bh;
  std::vector<double> ad, bd;
  // Strictly-ascending hub arrays of every awkward length pairing, with a
  // controllable intersection density (share = 0 exercises the no-common-hub
  // +inf path, share = 1 the all-common fast advance).
  const auto fill = [&](std::vector<uint32_t>* hubs, std::vector<double>* dist,
                        size_t n, uint32_t universe) {
    hubs->clear();
    dist->clear();
    uint32_t next = 0;
    while (hubs->size() < n && next < universe) {
      next += 1 + static_cast<uint32_t>(rng.NextUint64(universe / (n + 1) + 1));
      hubs->push_back(next);
      dist->push_back(static_cast<double>(rng.NextUint64(1000)));
    }
  };
  for (const size_t an : kLengths) {
    for (const size_t bn : {size_t{0}, size_t{1}, size_t{7}, size_t{64},
                            size_t{129}, size_t{1000}}) {
      for (int round = 0; round < 4; ++round) {
        const uint32_t universe =
            static_cast<uint32_t>(4 * (an + bn) + 16);
        fill(&ah, &ad, an, universe);
        fill(&bh, &bd, bn, universe);
        const double want = scalar->label_merge(ah.data(), ad.data(),
                                                ah.size(), bh.data(),
                                                bd.data(), bh.size());
        for (const KernelTable* table : variants) {
          SCOPED_TRACE(table->name);
          const double got = table->label_merge(ah.data(), ad.data(),
                                                ah.size(), bh.data(),
                                                bd.data(), bh.size());
          // Bit comparison: +inf (disjoint) must match exactly too.
          uint64_t want_bits, got_bits;
          std::memcpy(&want_bits, &want, sizeof want_bits);
          std::memcpy(&got_bits, &got, sizeof got_bits);
          ASSERT_EQ(got_bits, want_bits)
              << "an=" << ah.size() << " bn=" << bh.size();
        }
      }
    }
  }
  // Identical arrays: the min over every self-pair, and ranks near the
  // signed-compare boundary (contract caps ranks below 2^31).
  ah = {0u, 5u, 0x7FFFFFFEu};
  ad = {3.0, 1.0, 2.0};
  const double want =
      scalar->label_merge(ah.data(), ad.data(), 3, ah.data(), ad.data(), 3);
  EXPECT_EQ(want, 2.0);
  for (const KernelTable* table : variants) {
    SCOPED_TRACE(table->name);
    EXPECT_EQ(table->label_merge(ah.data(), ad.data(), 3, ah.data(),
                                 ad.data(), 3),
              want);
  }
}

TEST(SimdKernelsTest, OverridePinsAndRestores) {
  const SimdLevel before = simd::ActiveLevel();
  {
    simd::SimdOverride pin(SimdLevel::kScalar);
    ASSERT_TRUE(pin.applied());
    EXPECT_EQ(simd::ActiveLevel(), SimdLevel::kScalar);
    EXPECT_EQ(std::string(simd::Kernels().name), "scalar");
  }
  EXPECT_EQ(simd::ActiveLevel(), before);
  // The restore re-points the table, not only the level.
  EXPECT_EQ(std::string(simd::Kernels().name), simd::SimdLevelName(before));
}

// --- Staged rows and whole queries across dispatch levels -----------------

TEST(SimdStagedRowTest, StagedReadMatchesUncompressedBuildAtEveryLevel) {
  // Reference: the same network and objects built without compression, so
  // its rows never go through the resolve step, read at the scalar level.
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 300, .seed = 11});
  const std::vector<NodeId> objects = UniformDataset(g, 0.08, 11);
  const auto index = BuildSignatureIndex(g, objects, {.t = 5, .c = 2});
  ASSERT_GT(index->size_stats().compressed_entries, 0u);
  const auto plain =
      BuildSignatureIndex(g, objects, {.t = 5, .c = 2, .compress = false});
  const std::vector<NodeId> nodes = testing_util::SampleNodes(g, 40, 11);
  std::vector<SignatureRow> reference;
  {
    simd::SimdOverride pin(SimdLevel::kScalar);
    ASSERT_TRUE(pin.applied());
    for (const NodeId n : nodes) {
      reference.push_back(testing_util::StagedRow(*plain, n));
    }
  }
  RowStage stage;
  for (const SimdLevel level : simd::AvailableLevels()) {
    SCOPED_TRACE(simd::SimdLevelName(level));
    simd::SimdOverride pin(level);
    ASSERT_TRUE(pin.applied());
    for (size_t k = 0; k < nodes.size(); ++k) {
      const NodeId n = nodes[k];
      const SignatureRow& row = reference[k];
      index->ReadRowStaged(n, &stage);
      ASSERT_EQ(stage.size(), row.size());
      EXPECT_FALSE(stage.any_compressed());
      for (uint32_t i = 0; i < row.size(); ++i) {
        EXPECT_EQ(stage.categories()[i], row[i].category) << "node " << n;
        EXPECT_EQ(stage.links()[i], row[i].link) << "node " << n;
        EXPECT_EQ(stage.flags()[i], 0) << "node " << n;
      }
    }
  }
}

struct QueryEcho {
  KnnResult knn;
  RangeQueryResult range;
  DistanceAggregateResult aggregate;
  ReverseKnnResult rknn;
  JoinResult join;
};

QueryEcho RunQueries(const SignatureIndex& index, NodeId n) {
  QueryEcho echo;
  echo.knn = SignatureKnnQuery(index, n, 5, KnnResultType::kType1);
  echo.range = SignatureRangeQuery(index, n, 25.0);
  echo.aggregate = SignatureDistanceAggregateQuery(index, n, 25.0);
  echo.rknn = SignatureReverseKnn(index, n, 3);
  echo.join = SignatureEpsilonJoin(index, index, n, 18.0);
  return echo;
}

TEST(SimdQueryIdentityTest, QueriesAreIdenticalAtEveryDispatchLevel) {
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 400, .seed = 23});
  const std::vector<NodeId> objects = UniformDataset(g, 0.06, 23);
  const auto index = BuildSignatureIndex(g, objects, {.t = 5, .c = 2});
  const std::vector<NodeId> nodes = testing_util::SampleNodes(g, 12, 23);

  // Scalar is the reference.
  std::vector<QueryEcho> want;
  {
    simd::SimdOverride pin(SimdLevel::kScalar);
    ASSERT_TRUE(pin.applied());
    for (const NodeId n : nodes) want.push_back(RunQueries(*index, n));
  }
  ClosestPairResult want_cp;
  {
    simd::SimdOverride pin(SimdLevel::kScalar);
    want_cp = SignatureClosestPair(*index, *index);
  }

  for (const SimdLevel level : simd::AvailableLevels()) {
    SCOPED_TRACE(simd::SimdLevelName(level));
    simd::SimdOverride pin(level);
    ASSERT_TRUE(pin.applied());
    for (size_t i = 0; i < nodes.size(); ++i) {
      const QueryEcho got = RunQueries(*index, nodes[i]);
      const QueryEcho& ref = want[i];
      EXPECT_EQ(got.knn.objects, ref.knn.objects) << "node " << nodes[i];
      EXPECT_EQ(got.knn.distances, ref.knn.distances) << "node " << nodes[i];
      EXPECT_EQ(got.range.objects, ref.range.objects) << "node " << nodes[i];
      EXPECT_EQ(got.range.refined, ref.range.refined) << "node " << nodes[i];
      EXPECT_EQ(got.aggregate.count, ref.aggregate.count);
      EXPECT_EQ(got.aggregate.sum, ref.aggregate.sum) << "node " << nodes[i];
      EXPECT_EQ(got.aggregate.min, ref.aggregate.min);
      EXPECT_EQ(got.aggregate.max, ref.aggregate.max);
      EXPECT_EQ(got.rknn.objects, ref.rknn.objects) << "node " << nodes[i];
      EXPECT_EQ(got.rknn.refined, ref.rknn.refined) << "node " << nodes[i];
      ASSERT_EQ(got.join.pairs.size(), ref.join.pairs.size());
      for (size_t p = 0; p < ref.join.pairs.size(); ++p) {
        EXPECT_EQ(got.join.pairs[p].left, ref.join.pairs[p].left);
        EXPECT_EQ(got.join.pairs[p].right, ref.join.pairs[p].right);
      }
      EXPECT_EQ(got.join.pruned_by_categories, ref.join.pruned_by_categories)
          << "node " << nodes[i];
      EXPECT_EQ(got.join.exact_evaluations, ref.join.exact_evaluations)
          << "node " << nodes[i];
    }
    const ClosestPairResult got_cp = SignatureClosestPair(*index, *index);
    EXPECT_EQ(got_cp.left, want_cp.left);
    EXPECT_EQ(got_cp.right, want_cp.right);
    EXPECT_EQ(got_cp.distance, want_cp.distance);
    EXPECT_EQ(got_cp.refined, want_cp.refined);
  }
}

}  // namespace
}  // namespace dsig
