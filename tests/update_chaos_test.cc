// Update/query chaos harness: crashes the durable-update protocol at every
// WAL byte, simulates the checkpoint crash window, and hammers the index
// with concurrent queries during update storms. The crash sweeps prove the
// recovery contract (recovered index == rebuild over the committed record
// prefix, always passing Verify()); the concurrent cases are the TSan
// targets proving snapshot isolation (a query sees pre- or post-update
// state, never a mix).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/distance_ops.h"
#include "core/hub_labels.h"
#include "core/signature_builder.h"
#include "core/update.h"
#include "core/update_log.h"
#include "graph/graph_generator.h"
#include "io/durable_index.h"
#include "query/batch.h"
#include "query/planner.h"
#include "query/knn_query.h"
#include "query/range_query.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "workload/dataset_generator.h"

namespace dsig {
namespace {

std::string TempDir(const std::string& name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Semantic equivalence to a rebuild: every category matches the category of
// the true current distance, and backtracking retrieves that distance.
void ExpectIndexMatchesRebuild(const RoadNetwork& g,
                               const std::vector<NodeId>& objects,
                               const SignatureIndex& maintained) {
  const auto truth = testing_util::BruteForceDistances(g, objects);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const SignatureRow row = testing_util::StagedRow(maintained, n);
    ASSERT_EQ(row.size(), objects.size());
    for (uint32_t o = 0; o < row.size(); ++o) {
      ASSERT_EQ(row[o].category,
                maintained.partition().CategoryOf(truth[o][n]))
          << "node " << n << " object " << o;
      ASSERT_EQ(ExactDistance(maintained, n, o), truth[o][n])
          << "node " << n << " object " << o;
    }
  }
}

struct ChaosCorpus {
  std::vector<NodeId> objects;
  std::vector<UpdateRecord> script;
};

// RoadNetwork is move-only; the generator is deterministic, so "copy" means
// regenerate from the same seed.
RoadNetwork MakeChaosGraph() {
  return MakeRandomPlanar({.num_nodes = 50, .seed = 21});
}

// Small on purpose: the every-byte sweep re-initializes, crashes, and
// recovers the deployment once per WAL byte.
ChaosCorpus MakeChaosCorpus() {
  ChaosCorpus c;
  const RoadNetwork graph = MakeChaosGraph();
  c.objects = UniformDataset(graph, 0.08, 21);
  Random rng(99);
  for (int i = 0; i < 6; ++i) {
    const int action = static_cast<int>(rng.NextUint64(3));
    if (action == 0) {
      const NodeId u = static_cast<NodeId>(rng.NextUint64(graph.num_nodes()));
      NodeId v = static_cast<NodeId>(rng.NextUint64(graph.num_nodes()));
      if (u == v) v = (v + 1) % static_cast<NodeId>(graph.num_nodes());
      c.script.push_back(UpdateRecord::Add(u, v, rng.NextInt(1, 10)));
    } else {
      // Original edges only, so the script stays applicable to any prefix.
      const EdgeId e =
          static_cast<EdgeId>(rng.NextUint64(graph.num_edge_slots()));
      c.script.push_back(UpdateRecord::SetWeight(e, rng.NextInt(1, 10)));
    }
  }
  return c;
}

// The acceptance property: crash the process at EVERY byte offset of the
// WAL while a scripted update sequence runs. Whatever prefix of records
// committed, recovery must (a) pass deep verification, and (b) be
// semantically identical to rebuilding from the post-replay network.
TEST(UpdateChaosTest, EveryWalByteCrashRecoversTheCommittedPrefix) {
  const ChaosCorpus corpus = MakeChaosCorpus();
  const uint64_t total_bytes =
      UpdateLog::kHeaderBytes + corpus.script.size() * UpdateLog::kFrameBytes;

  for (uint64_t fail_at = UpdateLog::kHeaderBytes; fail_at <= total_bytes;
       ++fail_at) {
    SCOPED_TRACE("crash at WAL byte " + std::to_string(fail_at));
    const std::string dir = TempDir("chaos_sweep");
    RoadNetwork g = MakeChaosGraph();
    auto index = BuildSignatureIndex(g, corpus.objects, {.t = 5, .c = 2});

    DurableOptions options;
    options.wal_faults.fail_at = fail_at;
    auto live = DurableUpdater::Initialize(dir, &g, index.get(), options);
    ASSERT_TRUE(live.ok()) << live.status();
    for (const UpdateRecord& record : corpus.script) {
      const auto applied = (*live)->Apply(record);
      if (!applied.ok()) {
        // The crash point: the sticky error must hold from here on.
        const auto again = (*live)->Apply(record);
        ASSERT_FALSE(again.ok());
        break;
      }
    }
    // "Crash": drop every in-memory object, keeping only the directory.
    live->reset();
    index.reset();

    // The committed prefix is what an independent scan says it is.
    auto scan = UpdateLog::Replay(DurableUpdater::WalPath(dir));
    ASSERT_TRUE(scan.ok()) << scan.status();
    const size_t committed = scan->records.size();
    ASSERT_LE(committed, corpus.script.size());

    RecoverOptions verify;
    verify.verify = true;  // deep invariants on every recovery
    auto recovered = DurableUpdater::Recover(dir, {}, verify);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_EQ(recovered->replayed_records, committed);

    // The recovered network must be the base graph plus exactly the
    // committed records.
    RoadNetwork expected = MakeChaosGraph();
    for (size_t i = 0; i < committed; ++i) {
      ASSERT_TRUE(corpus.script[i].ApplyTo(&expected).ok());
    }
    ASSERT_EQ(recovered->graph->num_edge_slots(), expected.num_edge_slots());
    for (EdgeId e = 0; e < expected.num_edge_slots(); ++e) {
      ASSERT_EQ(recovered->graph->edge_removed(e), expected.edge_removed(e));
      if (!expected.edge_removed(e)) {
        ASSERT_EQ(recovered->graph->edge_weight(e), expected.edge_weight(e));
      }
    }
    ExpectIndexMatchesRebuild(*recovered->graph, corpus.objects,
                              *recovered->index);
  }
}

// A full round trip without crashes: apply, close cleanly, recover, keep
// applying, checkpoint, recover again (now with nothing to replay).
TEST(UpdateChaosTest, CleanShutdownRecoversAndCheckpointTruncates) {
  const ChaosCorpus corpus = MakeChaosCorpus();
  const std::string dir = TempDir("chaos_clean");
  RoadNetwork g = MakeChaosGraph();
  auto index = BuildSignatureIndex(g, corpus.objects, {.t = 5, .c = 2});
  // A label tier rides along: the first applied record must latch it stale,
  // and no checkpoint may persist the stale tier.
  index->set_hub_labels(HubLabels::Build(g, {}, nullptr));

  auto live = DurableUpdater::Initialize(dir, &g, index.get(), {});
  ASSERT_TRUE(live.ok()) << live.status();
  ASSERT_FALSE(index->hub_labels()->stale());
  for (const UpdateRecord& record : corpus.script) {
    ASSERT_TRUE((*live)->Apply(record).ok());
    EXPECT_TRUE(index->hub_labels()->stale());
  }
  EXPECT_EQ((*live)->records_since_checkpoint(), corpus.script.size());
  ASSERT_TRUE((*live)->Close().ok());
  live->reset();
  index.reset();

  RecoverOptions verify_opts;
  verify_opts.verify = true;
  auto recovered = DurableUpdater::Recover(dir, {}, verify_opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->replayed_records, corpus.script.size());
  ExpectIndexMatchesRebuild(*recovered->graph, corpus.objects,
                            *recovered->index);

  // Checkpoint absorbs the log; the next recovery replays nothing.
  ASSERT_TRUE(recovered->updater->Checkpoint().ok());
  EXPECT_EQ(recovered->updater->checkpoint_seq(), corpus.script.size());
  EXPECT_EQ(recovered->updater->records_since_checkpoint(), 0u);
  recovered->updater->Close();

  auto again = DurableUpdater::Recover(dir, {}, verify_opts);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->replayed_records, 0u);
  ExpectIndexMatchesRebuild(*again->graph, corpus.objects, *again->index);
  // The checkpoint was taken after updates had latched the labels stale, so
  // the recovered index must come back without a label tier (a stale tier
  // describes the pre-update network — persisting it would be corruption).
  EXPECT_EQ(again->index->hub_labels(), nullptr);
}

// The one crash window a checkpoint has: the new pair is saved but the
// process died before the new WAL's rename. The old log still names the old
// pair, so recovery replays all of it; the new pair is an orphan that the
// next checkpoint at the same seq overwrites.
TEST(UpdateChaosTest, CrashBeforeWalRenameReplaysTheOldLog) {
  const ChaosCorpus corpus = MakeChaosCorpus();
  const std::string dir = TempDir("chaos_window");
  const std::string aside = TempDir("chaos_window_aside");
  RoadNetwork g = MakeChaosGraph();
  auto index = BuildSignatureIndex(g, corpus.objects, {.t = 5, .c = 2});

  auto live = DurableUpdater::Initialize(dir, &g, index.get(), {});
  ASSERT_TRUE(live.ok()) << live.status();
  for (const UpdateRecord& record : corpus.script) {
    ASSERT_TRUE((*live)->Apply(record).ok());
  }
  // Copy the log and the seq-0 pair aside, checkpoint, then put the copies
  // back: byte-identical to dying just before the new WAL's rename.
  const std::vector<std::string> old_files = {
      DurableUpdater::WalPath(dir),
      DurableUpdater::NetworkCheckpointPath(dir, 0),
      DurableUpdater::IndexCheckpointPath(dir, 0)};
  for (const std::string& file : old_files) {
    std::filesystem::copy_file(
        file, aside / std::filesystem::path(file).filename());
  }
  ASSERT_TRUE((*live)->Checkpoint().ok());
  (*live)->Close();
  live->reset();
  index.reset();
  for (const std::string& file : old_files) {
    std::filesystem::copy_file(
        aside / std::filesystem::path(file).filename(), file,
        std::filesystem::copy_options::overwrite_existing);
  }
  const uint64_t seq = corpus.script.size();
  ASSERT_TRUE(std::filesystem::exists(
      DurableUpdater::NetworkCheckpointPath(dir, seq)));  // the orphan

  RecoverOptions verify_opts;
  verify_opts.verify = true;
  auto recovered = DurableUpdater::Recover(dir, {}, verify_opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->updater->checkpoint_seq(), 0u);
  EXPECT_EQ(recovered->replayed_records, corpus.script.size());
  ExpectIndexMatchesRebuild(*recovered->graph, corpus.objects,
                            *recovered->index);

  // A checkpoint from here commits at the same seq over the orphan and
  // deletes the seq-0 pair; the next recovery replays only what follows it.
  ASSERT_TRUE(recovered->updater->Checkpoint().ok());
  EXPECT_EQ(recovered->updater->checkpoint_seq(), seq);
  ASSERT_TRUE(recovered->updater->AddEdge(0, 7, 3).ok());
  recovered->updater->Close();
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::string>{
                       "index." + std::to_string(seq) + ".ckpt",
                       "network." + std::to_string(seq) + ".ckpt",
                       "wal.log"}));

  auto again = DurableUpdater::Recover(dir, {}, verify_opts);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->updater->checkpoint_seq(), seq);
  EXPECT_EQ(again->replayed_records, 1u);
  ExpectIndexMatchesRebuild(*again->graph, corpus.objects, *again->index);
}

// The same crash window, but the next checkpoint lands on another seq: the
// orphaned pair must not outlive it. After a commit the directory holds the
// new log and the one pair it names, whatever earlier crashes left behind.
TEST(UpdateChaosTest, CheckpointRemovesAnOrphanAtAnotherSeq) {
  const ChaosCorpus corpus = MakeChaosCorpus();
  const std::string dir = TempDir("chaos_orphan");
  const std::string aside = TempDir("chaos_orphan_aside");
  RoadNetwork g = MakeChaosGraph();
  auto index = BuildSignatureIndex(g, corpus.objects, {.t = 5, .c = 2});

  auto live = DurableUpdater::Initialize(dir, &g, index.get(), {});
  ASSERT_TRUE(live.ok()) << live.status();
  for (const UpdateRecord& record : corpus.script) {
    ASSERT_TRUE((*live)->Apply(record).ok());
  }
  const std::vector<std::string> old_files = {
      DurableUpdater::WalPath(dir),
      DurableUpdater::NetworkCheckpointPath(dir, 0),
      DurableUpdater::IndexCheckpointPath(dir, 0)};
  for (const std::string& file : old_files) {
    std::filesystem::copy_file(
        file, aside / std::filesystem::path(file).filename());
  }
  ASSERT_TRUE((*live)->Checkpoint().ok());
  (*live)->Close();
  live->reset();
  index.reset();
  for (const std::string& file : old_files) {
    std::filesystem::copy_file(
        aside / std::filesystem::path(file).filename(), file,
        std::filesystem::copy_options::overwrite_existing);
  }
  const uint64_t orphan = corpus.script.size();
  ASSERT_TRUE(std::filesystem::exists(
      DurableUpdater::IndexCheckpointPath(dir, orphan)));

  auto recovered = DurableUpdater::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ASSERT_EQ(recovered->updater->checkpoint_seq(), 0u);
  ASSERT_TRUE(recovered->updater->AddEdge(0, 7, 3).ok());
  ASSERT_TRUE(recovered->updater->Checkpoint().ok());
  const uint64_t seq = orphan + 1;
  EXPECT_EQ(recovered->updater->checkpoint_seq(), seq);
  recovered->updater->Close();

  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::string>{
                       "index." + std::to_string(seq) + ".ckpt",
                       "network." + std::to_string(seq) + ".ckpt",
                       "wal.log"}));
}

TEST(UpdateChaosTest, AutoCheckpointFiresOnInterval) {
  const ChaosCorpus corpus = MakeChaosCorpus();
  const std::string dir = TempDir("chaos_auto");
  RoadNetwork g = MakeChaosGraph();
  auto index = BuildSignatureIndex(g, corpus.objects, {.t = 5, .c = 2});

  DurableOptions options;
  options.checkpoint_interval = 4;
  auto live = DurableUpdater::Initialize(dir, &g, index.get(), options);
  ASSERT_TRUE(live.ok()) << live.status();
  for (const UpdateRecord& record : corpus.script) {  // 6 records
    ASSERT_TRUE((*live)->Apply(record).ok());
  }
  EXPECT_EQ((*live)->checkpoint_seq(), 4u);
  EXPECT_EQ((*live)->records_since_checkpoint(), 2u);
  // The superseded seq-0 checkpoint pair was deleted.
  EXPECT_FALSE(std::filesystem::exists(
      DurableUpdater::NetworkCheckpointPath(dir, 0)));
  EXPECT_FALSE(
      std::filesystem::exists(DurableUpdater::IndexCheckpointPath(dir, 0)));
}

// --- link-width overflow ---------------------------------------------------

// A 10 x 10 grid has degree 4, so its links are 3 bits wide: a node holds
// at most 8 adjacency slots. Node 44 is interior (4 slots); four shortcuts
// of half a unit fill it, and a fifth, to an object it is not yet joined
// to, would be the object's next hop from node 44 at slot 8, past the link.
struct LinkOverflowCase {
  RoadNetwork graph = MakeGrid({.width = 10, .height = 10});
  std::vector<NodeId> objects = {0, 9, 55, 90, 99};
  std::vector<UpdateRecord> fits = {
      UpdateRecord::Add(44, 0, 0.5), UpdateRecord::Add(44, 9, 0.5),
      UpdateRecord::Add(44, 90, 0.5), UpdateRecord::Add(44, 99, 0.5)};
  UpdateRecord overflow = UpdateRecord::Add(44, 55, 0.5);
};

TEST(UpdateChaosTest, AddEdgeBeyondTheLinkWidthIsRefusedBeforeLogging) {
  LinkOverflowCase c;
  const std::string dir = TempDir("chaos_link_overflow");
  auto index = BuildSignatureIndex(c.graph, c.objects, {.t = 5, .c = 2});
  ASSERT_EQ(index->codec().link_bits(), 3);
  auto live = DurableUpdater::Initialize(dir, &c.graph, index.get(), {});
  ASSERT_TRUE(live.ok()) << live.status();
  for (const UpdateRecord& record : c.fits) {
    ASSERT_TRUE((*live)->Apply(record).ok());
  }
  ASSERT_EQ(c.graph.degree(44), 8u);
  const auto wal_bytes =
      std::filesystem::file_size(DurableUpdater::WalPath(dir));

  const auto refused = (*live)->Apply(c.overflow);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
      << refused.status();
  EXPECT_EQ(c.graph.degree(44), 8u);
  EXPECT_EQ((*live)->next_seq(), 5u);
  EXPECT_EQ(std::filesystem::file_size(DurableUpdater::WalPath(dir)),
            wal_bytes);
  // The refusal latches nothing: the writer keeps applying.
  EXPECT_TRUE((*live)->Apply(UpdateRecord::SetWeight(0, 2)).ok());
  ASSERT_TRUE((*live)->Close().ok());

  RecoverOptions verify;
  verify.verify = true;
  auto recovered = DurableUpdater::Recover(dir, {}, verify);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->replayed_records, c.fits.size() + 1);
}

// A log that already carries such a record (written by a build without the
// refusal, or forged) must not abort recovery: it reports Corruption.
TEST(UpdateChaosTest, LoggedLinkOverflowRecoversToCorruption) {
  LinkOverflowCase c;
  const std::string dir = TempDir("chaos_link_overflow_log");
  auto index = BuildSignatureIndex(c.graph, c.objects, {.t = 5, .c = 2});
  auto live = DurableUpdater::Initialize(dir, &c.graph, index.get(), {});
  ASSERT_TRUE(live.ok()) << live.status();
  ASSERT_TRUE((*live)->Close().ok());
  {
    auto log = UpdateLog::Open(DurableUpdater::WalPath(dir));
    ASSERT_TRUE(log.ok()) << log.status();
    for (const UpdateRecord& record : c.fits) {
      ASSERT_TRUE((*log)->Append(record).ok());
    }
    ASSERT_TRUE((*log)->Append(c.overflow).ok());
    ASSERT_TRUE((*log)->Close().ok());
  }

  auto recovered = DurableUpdater::Recover(dir);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption)
      << recovered.status();
}

// --- concurrency (the TSan targets) --------------------------------------

// One edge toggles between two weights, flipping the network between two
// known states A and B. Query threads continuously retrieve the full
// distance vector from a probe node; every vector they see must equal
// state A's or state B's vector in its ENTIRETY — one mixed entry means a
// query straddled an update, i.e. snapshot isolation broke.
TEST(UpdateChaosTest, TogglingQueriesSeeOnlyTheTwoLegalStates) {
  RoadNetwork g = MakeRandomPlanar({.num_nodes = 60, .seed = 33});
  const std::vector<NodeId> objects = UniformDataset(g, 0.1, 33);
  const size_t k = objects.size();

  // Pick a toggle edge that actually moves several distances: the first
  // edge whose 1 <-> 40 weight flip changes the probe's distance vector.
  const NodeId probe = 11;
  EdgeId toggle = kInvalidEdge;
  const Weight w_a = 1;
  const Weight w_b = 40;
  std::vector<Weight> vec_a, vec_b;
  for (EdgeId e = 0; e < g.num_edge_slots() && toggle == kInvalidEdge; ++e) {
    const Weight original = g.edge_weight(e);
    g.SetEdgeWeight(e, w_a);
    const auto ta = testing_util::BruteForceDistances(g, objects);
    g.SetEdgeWeight(e, w_b);
    const auto tb = testing_util::BruteForceDistances(g, objects);
    std::vector<Weight> a, b;
    for (uint32_t o = 0; o < objects.size(); ++o) {
      a.push_back(ta[o][probe]);
      b.push_back(tb[o][probe]);
    }
    if (a != b) {
      toggle = e;
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      vec_a = a;  // already sorted, as kType1 returns them
      vec_b = b;
    } else {
      g.SetEdgeWeight(e, original);
    }
  }
  ASSERT_NE(toggle, kInvalidEdge);

  g.SetEdgeWeight(toggle, w_a);
  auto index = BuildSignatureIndex(g, objects, {.t = 5, .c = 2});
  SignatureUpdater updater(&g, index.get());

  std::atomic<bool> done{false};
  std::atomic<int> mixed{0};
  std::atomic<uint64_t> reads{0};
  auto reader = [&] {
    while (!done.load(std::memory_order_relaxed)) {
      // Whole-vector read under one snapshot (the entry point pins it).
      const KnnResult r =
          SignatureKnnQuery(*index, probe, k, KnnResultType::kType1);
      if (r.distances != vec_a && r.distances != vec_b) mixed.fetch_add(1);
      reads.fetch_add(1);
    }
  };
  std::thread t1(reader), t2(reader);
  for (int flip = 0; flip < 120; ++flip) {
    updater.SetEdgeWeight(toggle, flip % 2 == 0 ? w_b : w_a);
  }
  done.store(true);
  t1.join();
  t2.join();
  EXPECT_EQ(mixed.load(), 0)
      << "a query observed a distance vector that is neither pre- nor "
         "post-update state";
  EXPECT_GT(reads.load(), 0u);
}

// Random update storm against continuous mixed queries. No golden values
// mid-storm — the point is TSan coverage of every updater/reader pair — but
// results must stay structurally sane, and the final index must still be
// semantically fresh.
TEST(UpdateChaosTest, UpdateStormWithConcurrentMixedQueries) {
  RoadNetwork g = MakeRandomPlanar({.num_nodes = 120, .seed = 8});
  const std::vector<NodeId> objects = UniformDataset(g, 0.06, 8);
  auto index = BuildSignatureIndex(g, objects, {.t = 5, .c = 2});
  // A hot row cache, so cache invalidation races are part of the storm.
  index->ConfigureRowCache({.byte_budget = 1 << 16});
  // And a label tier, so the planner's stale demotion races with queries
  // mid-flight: readers that raced the first MarkStale answered from their
  // pinned pre-update snapshot, which is exactly what isolation allows.
  index->set_hub_labels(HubLabels::Build(g, {}, nullptr));
  SignatureUpdater updater(&g, index.get());

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  auto reader = [&](uint64_t seed) {
    Random rng(seed);
    while (!done.load(std::memory_order_relaxed)) {
      const NodeId n = static_cast<NodeId>(rng.NextUint64(g.num_nodes()));
      const KnnResult knn =
          SignatureKnnQuery(*index, n, 4, KnnResultType::kType1);
      for (size_t i = 1; i < knn.distances.size(); ++i) {
        if (knn.distances[i - 1] > knn.distances[i]) violations.fetch_add(1);
      }
      const RangeQueryResult range = SignatureRangeQuery(*index, n, 25);
      if (range.objects.size() > objects.size()) violations.fetch_add(1);
      // Fan a small batch across the process pool: its workers take their
      // own per-thread snapshots, interleaving RunBatch with the storm.
      const std::vector<NodeId> batch = {
          n, static_cast<NodeId>((n + 17) % g.num_nodes()),
          static_cast<NodeId>((n + 31) % g.num_nodes())};
      const auto results =
          BatchKnnQuery(*index, batch, 3, KnnResultType::kType3);
      if (results.size() != batch.size()) violations.fetch_add(1);
    }
  };
  std::thread t1(reader, 101), t2(reader, 202);

  Random rng(7);
  for (int step = 0; step < 150; ++step) {
    const int action = static_cast<int>(rng.NextUint64(3));
    if (action == 0) {
      const NodeId u = static_cast<NodeId>(rng.NextUint64(g.num_nodes()));
      NodeId v = static_cast<NodeId>(rng.NextUint64(g.num_nodes()));
      if (u == v) v = (v + 1) % static_cast<NodeId>(g.num_nodes());
      updater.AddEdge(u, v, rng.NextInt(1, 10));
    } else {
      const EdgeId e =
          static_cast<EdgeId>(rng.NextUint64(g.num_edge_slots()));
      if (g.edge_removed(e)) continue;
      updater.SetEdgeWeight(e, rng.NextInt(1, 10));
    }
  }
  done.store(true);
  t1.join();
  t2.join();
  EXPECT_EQ(violations.load(), 0);
  // The storm applied updates, so the tier is latched stale and demoted;
  // the maintained signature path carries all queries from here.
  EXPECT_TRUE(index->hub_labels()->stale());
  EXPECT_FALSE(LabelsUsable(*index));
  ExpectIndexMatchesRebuild(g, objects, *index);
  // An offline rebuild on the post-storm network re-enables the tier with
  // fresh distances (unless the forced-no-labels CI leg pins the planner
  // off — the direct Distance checks below hold either way).
  index->set_hub_labels(HubLabels::Build(g, {}, nullptr));
  const char* pin = std::getenv("DSIG_FORCE_NO_LABELS");
  if (pin == nullptr || pin[0] == '\0' || std::strcmp(pin, "0") == 0) {
    ASSERT_TRUE(LabelsUsable(*index));
  }
  const auto truth = testing_util::BruteForceDistances(g, objects);
  for (uint32_t o = 0; o < objects.size(); ++o) {
    ASSERT_EQ(index->hub_labels()->Distance(19, objects[o]), truth[o][19]);
  }
}

}  // namespace
}  // namespace dsig
