// Exhaustive corruption fuzzing of the persistence layer: every single-byte
// truncation and every single-byte flip of a saved network/index file must
// come back as a clean Status error — never an abort, hang, sanitizer
// report, or silently-loaded index. Fault plans ride in through the reader,
// so the files on disk stay pristine and each trial is independent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/signature_builder.h"
#include "core/update_log.h"
#include "obs/op_counters.h"
#include "graph/graph_generator.h"
#include "io/durable_index.h"
#include "io/persistence.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "workload/dataset_generator.h"

namespace dsig {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

uint64_t FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return static_cast<uint64_t>(size);
}

// Small on purpose: the files stay a few KB, so trying *every* byte offset
// is feasible within a test budget.
struct Corpus {
  RoadNetwork graph;
  std::unique_ptr<SignatureIndex> index;
  std::string network_path;
  std::string index_path;
};

// `tag` keeps file names unique per test case: ctest runs the cases of this
// binary as parallel processes sharing one temp directory.
Corpus MakeCorpus(const char* tag) {
  Corpus c;
  c.graph = MakeRandomPlanar({.num_nodes = 90, .seed = 77});
  const std::vector<NodeId> objects = UniformDataset(c.graph, 0.08, 77);
  c.index = BuildSignatureIndex(c.graph, objects, {.t = 5, .c = 2});
  c.network_path = TempPath((std::string("fuzz_") + tag + ".net").c_str());
  c.index_path = TempPath((std::string("fuzz_") + tag + ".idx").c_str());
  EXPECT_TRUE(SaveRoadNetwork(c.graph, c.network_path).ok());
  EXPECT_TRUE(SaveSignatureIndex(*c.index, c.index_path).ok());
  return c;
}

TEST(CorruptionFuzzTest, EveryTruncationOfTheNetworkFileFails) {
  const Corpus c = MakeCorpus("net_trunc");
  const uint64_t size = FileSize(c.network_path);
  for (uint64_t cut = 0; cut < size; ++cut) {
    const auto loaded =
        LoadRoadNetwork(c.network_path, {.faults = {.truncate_at = cut}});
    ASSERT_FALSE(loaded.ok()) << "survived truncation at byte " << cut;
  }
  EXPECT_TRUE(LoadRoadNetwork(c.network_path).ok());
}

TEST(CorruptionFuzzTest, EveryTruncationOfTheIndexFileFails) {
  const Corpus c = MakeCorpus("idx_trunc");
  const uint64_t size = FileSize(c.index_path);
  for (uint64_t cut = 0; cut < size; ++cut) {
    const auto loaded = LoadSignatureIndex(c.graph, c.index_path,
                                           {.faults = {.truncate_at = cut}});
    ASSERT_FALSE(loaded.ok()) << "survived truncation at byte " << cut;
  }
  EXPECT_TRUE(LoadSignatureIndex(c.graph, c.index_path).ok());
}

TEST(CorruptionFuzzTest, EveryByteFlipOfTheNetworkFileFails) {
  const Corpus c = MakeCorpus("net_flip");
  const uint64_t size = FileSize(c.network_path);
  Random rng(1);
  for (uint64_t offset = 0; offset < size; ++offset) {
    const uint8_t mask = static_cast<uint8_t>(1u << rng.NextUint64(8));
    const auto loaded = LoadRoadNetwork(
        c.network_path,
        {.faults = {.flip_byte = offset, .flip_mask = mask}});
    ASSERT_FALSE(loaded.ok()) << "survived bit flip at byte " << offset
                              << " mask " << static_cast<int>(mask);
  }
}

TEST(CorruptionFuzzTest, EveryByteFlipOfTheIndexFileFails) {
  const Corpus c = MakeCorpus("idx_flip");
  const uint64_t size = FileSize(c.index_path);
  Random rng(2);
  for (uint64_t offset = 0; offset < size; ++offset) {
    const uint8_t mask = static_cast<uint8_t>(1u << rng.NextUint64(8));
    const auto loaded = LoadSignatureIndex(
        c.graph, c.index_path,
        {.faults = {.flip_byte = offset, .flip_mask = mask}});
    ASSERT_FALSE(loaded.ok()) << "survived bit flip at byte " << offset
                              << " mask " << static_cast<int>(mask);
  }
}

TEST(CorruptionFuzzTest, MultiBitByteSmashesFail) {
  // Whole-byte garbage (not just single bits) at seeded random offsets.
  const Corpus c = MakeCorpus("smash");
  const uint64_t size = FileSize(c.index_path);
  Random rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    const uint64_t offset = rng.NextUint64(size);
    const uint8_t mask = static_cast<uint8_t>(1 + rng.NextUint64(255));
    const auto loaded = LoadSignatureIndex(
        c.graph, c.index_path,
        {.faults = {.flip_byte = offset, .flip_mask = mask}});
    ASSERT_FALSE(loaded.ok()) << "survived smash at byte " << offset
                              << " mask " << static_cast<int>(mask);
  }
}

TEST(CorruptionFuzzTest, RandomGarbageFilesFail) {
  const Corpus c = MakeCorpus("garbage");
  Random rng(4);
  const std::string path = TempPath("fuzz_garbage.bin");
  for (int trial = 0; trial < 50; ++trial) {
    const size_t bytes = 1 + rng.NextUint64(4096);
    std::vector<uint8_t> blob(bytes);
    for (auto& b : blob) b = static_cast<uint8_t>(rng.NextUint64(256));
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(blob.data(), 1, blob.size(), f), blob.size());
    std::fclose(f);
    EXPECT_FALSE(LoadRoadNetwork(path).ok()) << "trial " << trial;
    EXPECT_FALSE(LoadSignatureIndex(c.graph, path).ok()) << "trial " << trial;
  }
}

TEST(CorruptionFuzzTest, AllZeroRowsDegradeToDijkstraFallback) {
  // A row smashed to all-zero bytes is the nastiest corruption for the
  // word-level decoder: with a reverse-zero-padding code, zeros look like an
  // endless run of category-0 codes (and the unary scan must stay bounded
  // instead of walking off the stream). Every node's read must degrade to
  // the bounded-Dijkstra fallback — never crash, hang, or return garbage.
  Corpus c = MakeCorpus("zero_row");
  const size_t num_objects = c.index->num_objects();
  std::vector<SignatureRow> expected;
  expected.reserve(c.graph.num_nodes());
  for (NodeId n = 0; n < c.graph.num_nodes(); ++n) {
    expected.push_back(testing_util::StagedRow(*c.index, n));
  }
  uint64_t fallbacks = 0;
  for (NodeId n = 0; n < c.graph.num_nodes(); ++n) {
    EncodedRow& encoded = c.index->mutable_encoded_row(n);
    const std::vector<uint8_t> pristine = encoded.bytes;
    std::fill(encoded.bytes.begin(), encoded.bytes.end(), uint8_t{0});
    RowStage direct;
    ASSERT_FALSE(
        c.index->codec().TryDecodeRowStage(encoded, num_objects, &direct))
        << "all-zero row parsed as a valid signature for node " << n;
    const OpCounters before = GlobalOpCounters();
    const SignatureRow recovered = testing_util::StagedRow(*c.index, n);
    const OpCounters delta = GlobalOpCounters() - before;
    EXPECT_GE(delta.decode_fallbacks, 1u) << "node " << n;
    ++fallbacks;
    // The fallback recomputes the row from the graph, so categories must
    // match the pristine signature exactly; links may differ when shortest
    // paths tie, but each one must name a live adjacency slot.
    ASSERT_EQ(recovered.size(), expected[n].size());
    for (size_t o = 0; o < recovered.size(); ++o) {
      EXPECT_FALSE(recovered[o].compressed);
      EXPECT_EQ(recovered[o].category, expected[n][o].category)
          << "node " << n << " object " << o;
      EXPECT_LT(recovered[o].link, c.graph.adjacency(n).size() + 1)
          << "node " << n << " object " << o;
    }
    // Restore the row so each node's trial is independent.
    c.index->mutable_encoded_row(n).bytes = pristine;
  }
  EXPECT_EQ(fallbacks, c.graph.num_nodes());
}

TEST(CorruptionFuzzTest, WriteFailuresNeverLeaveAFile) {
  const Corpus c = MakeCorpus("partial");
  const uint64_t size = FileSize(c.index_path);
  const std::string path = TempPath("fuzz_partial.idx");
  // A failed save must leave an existing file alone — so start from a clean
  // slate to assert the stronger claim that nothing appears at all.
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  Random rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    const uint64_t fail_at = rng.NextUint64(size);
    const Status status =
        SaveSignatureIndex(*c.index, path, {.faults = {.fail_at = fail_at}});
    ASSERT_FALSE(status.ok()) << "save survived fail_at " << fail_at;
    EXPECT_EQ(std::fopen(path.c_str(), "rb"), nullptr);
    EXPECT_EQ(std::fopen((path + ".tmp").c_str(), "rb"), nullptr);
  }
  // And with no fault the very same path works.
  ASSERT_TRUE(SaveSignatureIndex(*c.index, path).ok());
  EXPECT_TRUE(LoadSignatureIndex(c.graph, path).ok());
}

// --- WAL / MANIFEST sweeps -------------------------------------------------
//
// The update log has a weaker contract than the snapshot files: a damaged
// tail is EXPECTED after a crash, so replay may legitimately succeed with a
// prefix of the records. What it must never do is crash, hang, or hand back
// records that were never appended.

std::string WriteWalCorpus(const char* tag,
                           std::vector<UpdateRecord>* script) {
  const std::string path =
      TempPath((std::string("fuzz_") + tag + ".wal").c_str());
  std::remove(path.c_str());
  EXPECT_TRUE(UpdateLog::Create(path, /*base_seq=*/7).ok());
  auto log = UpdateLog::Open(path);
  EXPECT_TRUE(log.ok());
  Random rng(6);
  for (int i = 0; i < 12; ++i) {
    UpdateRecord r;
    if (i % 3 == 0) {
      r = UpdateRecord::Add(static_cast<NodeId>(rng.NextUint64(50)),
                            static_cast<NodeId>(50 + rng.NextUint64(50)),
                            rng.NextInt(1, 9));
    } else {
      r = UpdateRecord::SetWeight(static_cast<EdgeId>(rng.NextUint64(40)),
                                  rng.NextInt(1, 9));
    }
    script->push_back(r);
    EXPECT_TRUE((*log)->Append(r).ok());
  }
  EXPECT_TRUE((*log)->Sync().ok());
  EXPECT_TRUE((*log)->Close().ok());
  return path;
}

void ExpectPrefixOf(const std::vector<UpdateRecord>& got,
                    const std::vector<UpdateRecord>& script,
                    uint64_t offset) {
  ASSERT_LE(got.size(), script.size()) << "offset " << offset;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].op, script[i].op) << "offset " << offset << " rec " << i;
    ASSERT_EQ(got[i].a, script[i].a) << "offset " << offset << " rec " << i;
    ASSERT_EQ(got[i].b, script[i].b) << "offset " << offset << " rec " << i;
    ASSERT_EQ(got[i].weight, script[i].weight)
        << "offset " << offset << " rec " << i;
  }
}

TEST(CorruptionFuzzTest, EveryByteFlipOfTheWalReplaysAPrefixOrFailsTyped) {
  std::vector<UpdateRecord> script;
  const std::string path = WriteWalCorpus("wal_flip", &script);
  const uint64_t size = FileSize(path);
  Random rng(7);
  for (uint64_t offset = 0; offset < size; ++offset) {
    const uint8_t mask = static_cast<uint8_t>(1u << rng.NextUint64(8));
    const auto replay = UpdateLog::Replay(
        path, {.flip_byte = offset, .flip_mask = mask});
    if (replay.ok()) {
      // A flip the framing tolerates may only ever shorten the log: the
      // tail record is dropped as torn, never altered or reordered.
      EXPECT_EQ(replay->base_seq, 7u) << "offset " << offset;
      ExpectPrefixOf(replay->records, script, offset);
      EXPECT_LT(replay->records.size(), script.size())
          << "offset " << offset << ": a flipped log replayed in full";
    } else {
      EXPECT_EQ(replay.status().code(), StatusCode::kCorruption)
          << "offset " << offset << ": " << replay.status().ToString();
    }
  }
  // The pristine file still replays everything.
  const auto clean = UpdateLog::Replay(path);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->records.size(), script.size());
}

TEST(CorruptionFuzzTest, EveryTruncationOfTheWalReplaysTheCommittedPrefix) {
  std::vector<UpdateRecord> script;
  const std::string path = WriteWalCorpus("wal_trunc", &script);
  const uint64_t size = FileSize(path);
  for (uint64_t cut = 0; cut < size; ++cut) {
    const auto replay = UpdateLog::Replay(path, {.truncate_at = cut});
    if (cut < UpdateLog::kHeaderBytes) {
      // No complete header — that is corruption, not a torn tail.
      ASSERT_FALSE(replay.ok()) << "cut " << cut;
      EXPECT_EQ(replay.status().code(), StatusCode::kCorruption);
      continue;
    }
    ASSERT_TRUE(replay.ok()) << "cut " << cut << ": "
                             << replay.status().ToString();
    const size_t committed = static_cast<size_t>(
        (cut - UpdateLog::kHeaderBytes) / UpdateLog::kFrameBytes);
    EXPECT_EQ(replay->records.size(), committed) << "cut " << cut;
    ExpectPrefixOf(replay->records, script, cut);
  }
}

TEST(CorruptionFuzzTest, EveryByteFlipOfTheManifestFailsRecovery) {
  // The MANIFEST is the commit point of a checkpoint, so unlike the WAL it
  // gets the strict treatment: any damaged byte must refuse recovery with a
  // typed error rather than load from a wrong (or imaginary) checkpoint.
  const std::string dir = TempPath("fuzz_manifest");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  RoadNetwork graph = MakeRandomPlanar({.num_nodes = 40, .seed = 9});
  const std::vector<NodeId> objects = UniformDataset(graph, 0.1, 9);
  auto index = BuildSignatureIndex(graph, objects,
                                   {.t = 5, .c = 2, .keep_forest = true});
  auto live = DurableUpdater::Initialize(dir, &graph, index.get(), {});
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE((*live)->Close().ok());

  const std::string manifest = DurableUpdater::ManifestPath(dir);
  std::FILE* f = std::fopen(manifest.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::vector<uint8_t> pristine(64);
  const size_t bytes = std::fread(pristine.data(), 1, pristine.size(), f);
  std::fclose(f);
  pristine.resize(bytes);
  ASSERT_GT(bytes, 0u);

  Random rng(8);
  for (size_t offset = 0; offset < pristine.size(); ++offset) {
    std::vector<uint8_t> smashed = pristine;
    smashed[offset] ^= static_cast<uint8_t>(1u << rng.NextUint64(8));
    f = std::fopen(manifest.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(smashed.data(), 1, smashed.size(), f),
              smashed.size());
    std::fclose(f);
    const auto recovered = DurableUpdater::Recover(dir, {}, {});
    ASSERT_FALSE(recovered.ok()) << "recovery survived manifest flip at byte "
                                 << offset;
    EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption)
        << "offset " << offset << ": " << recovered.status().ToString();
  }

  // Restore and prove the setup itself was sound.
  f = std::fopen(manifest.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(pristine.data(), 1, pristine.size(), f),
            pristine.size());
  std::fclose(f);
  auto recovered = DurableUpdater::Recover(dir, {}, {});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dsig
