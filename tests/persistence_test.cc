#include "io/persistence.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/distance_ops.h"
#include "core/hub_labels.h"
#include "core/signature_builder.h"
#include "core/update.h"
#include "graph/graph_generator.h"
#include "query/knn_query.h"
#include "tests/test_util.h"
#include "util/binary_io.h"
#include "workload/dataset_generator.h"

namespace dsig {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// XORs `mask` into the byte at `offset` of `path` (corruption helper).
void FlipByte(const std::string& path, long offset, uint8_t mask) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  uint8_t byte = 0;
  ASSERT_EQ(std::fread(&byte, 1, 1, f), 1u);
  byte ^= mask;
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&byte, 1, 1, f), 1u);
  std::fclose(f);
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

TEST(RoadNetworkPersistenceTest, RoundTripsExactly) {
  RoadNetwork original = MakeRandomPlanar({.num_nodes = 300, .seed = 5});
  original.RemoveEdge(original.FindEdge(
      original.edge_endpoints(0).first, original.edge_endpoints(0).second));
  const std::string path = TempPath("network.bin");
  ASSERT_TRUE(SaveRoadNetwork(original, path).ok());
  auto loaded_or = LoadRoadNetwork(path);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status();
  const auto& loaded = *loaded_or;
  ASSERT_EQ(loaded->num_nodes(), original.num_nodes());
  ASSERT_EQ(loaded->num_edge_slots(), original.num_edge_slots());
  ASSERT_EQ(loaded->num_edges(), original.num_edges());
  for (NodeId n = 0; n < original.num_nodes(); ++n) {
    EXPECT_EQ(loaded->position(n).x, original.position(n).x);
    EXPECT_EQ(loaded->position(n).y, original.position(n).y);
    // Adjacency slot order must be identical (links depend on it).
    ASSERT_EQ(loaded->degree(n), original.degree(n));
    for (size_t i = 0; i < original.degree(n); ++i) {
      EXPECT_EQ(loaded->adjacency(n)[i].to, original.adjacency(n)[i].to);
      EXPECT_EQ(loaded->adjacency(n)[i].weight,
                original.adjacency(n)[i].weight);
      EXPECT_EQ(loaded->adjacency(n)[i].removed,
                original.adjacency(n)[i].removed);
    }
  }
}

TEST(RoadNetworkPersistenceTest, RejectsMissingAndGarbageFiles) {
  const auto missing = LoadRoadNetwork("/nonexistent/nowhere.bin");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  const std::string path = TempPath("garbage.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("not a network", f);
  std::fclose(f);
  const auto garbage = LoadRoadNetwork(path);
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.status().code(), StatusCode::kCorruption);
  EXPECT_NE(garbage.status().message().find("bad magic"), std::string::npos);
}

TEST(RoadNetworkPersistenceTest, RejectsWrongMagicAndVersionSkew) {
  const RoadNetwork graph = MakeRandomPlanar({.num_nodes = 60, .seed = 7});
  const std::string path = TempPath("header.net");
  ASSERT_TRUE(SaveRoadNetwork(graph, path).ok());

  // Byte 0 is the magic.
  FlipByte(path, 0, 0xFF);
  const auto bad_magic = LoadRoadNetwork(path);
  ASSERT_FALSE(bad_magic.ok());
  EXPECT_NE(bad_magic.status().message().find("bad magic"),
            std::string::npos);
  FlipByte(path, 0, 0xFF);

  // Byte 4 is the version.
  FlipByte(path, 4, 0xFF);
  const auto skewed = LoadRoadNetwork(path);
  ASSERT_FALSE(skewed.ok());
  EXPECT_NE(skewed.status().message().find("version"), std::string::npos);
  FlipByte(path, 4, 0xFF);

  EXPECT_TRUE(LoadRoadNetwork(path).ok());
}

TEST(RoadNetworkPersistenceTest, RejectsAnIndexFileAsANetwork) {
  const RoadNetwork graph = MakeRandomPlanar({.num_nodes = 80, .seed = 8});
  const auto index = BuildSignatureIndex(graph, UniformDataset(graph, 0.1, 8),
                                         {.t = 5, .c = 2});
  const std::string path = TempPath("mistaken.idx");
  ASSERT_TRUE(SaveSignatureIndex(*index, path).ok());
  const auto as_network = LoadRoadNetwork(path);
  ASSERT_FALSE(as_network.ok());
  EXPECT_NE(as_network.status().message().find("bad magic"),
            std::string::npos);
  // And the other way around.
  const std::string net_path = TempPath("mistaken.net");
  ASSERT_TRUE(SaveRoadNetwork(graph, net_path).ok());
  EXPECT_FALSE(LoadSignatureIndex(graph, net_path).ok());
}

TEST(RoadNetworkPersistenceTest, FailedSaveLeavesNoFileBehind) {
  const RoadNetwork graph = MakeRandomPlanar({.num_nodes = 100, .seed = 9});
  const std::string path = TempPath("failed.net");
  // Simulated full disk after 64 bytes: the save reports the I/O error and
  // neither the final file nor the temp file exists afterwards.
  const Status status =
      SaveRoadNetwork(graph, path, {.faults = {.fail_at = 64}});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_FALSE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST(RoadNetworkPersistenceTest, FailedResaveKeepsTheOldFileLoadable) {
  const RoadNetwork graph = MakeRandomPlanar({.num_nodes = 100, .seed = 10});
  const std::string path = TempPath("atomic.net");
  ASSERT_TRUE(SaveRoadNetwork(graph, path).ok());
  // A later save that dies half-way must not clobber the good file.
  ASSERT_FALSE(
      SaveRoadNetwork(graph, path, {.faults = {.fail_at = 64}}).ok());
  const auto loaded = LoadRoadNetwork(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->num_nodes(), graph.num_nodes());
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

// The network format's bytes, pinned (a codec change made on both sides
// would still round-trip): three nodes, two edges.
TEST(RoadNetworkPersistenceTest, OnDiskBytesAreStable) {
  RoadNetwork graph;
  graph.AddNode({0, 0});
  graph.AddNode({1, 0});
  graph.AddNode({1, 1});
  graph.AddEdge(0, 1, 1.0);
  graph.AddEdge(1, 2, 2.5);
  const std::string path = TempPath("bytes.net");
  ASSERT_TRUE(SaveRoadNetwork(graph, path).ok());

  const std::vector<uint8_t> expected = {
      // "DSGN", version 2
      0x44, 0x53, 0x47, 0x4e, 0x02, 0x00, 0x00, 0x00,  //
      // node section: count 3, (x, y) per node, crc32c
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,  //
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,  //
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,  //
      0x44, 0xf9, 0x00, 0x87,                          //
      // edge section: count 2, (u, v, weight, removed) per edge, crc32c
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //
      0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,  //
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,  //
      0x00, 0x00, 0x00, 0x00,                          //
      0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,  //
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x40,  //
      0x00, 0x00, 0x00, 0x00,                          //
      0x23, 0x5e, 0x32, 0x5b,                          //
      // footer: "DSGF", payload bytes 120, crc32c
      0x44, 0x53, 0x47, 0x46, 0x78, 0x00, 0x00, 0x00,  //
      0x00, 0x00, 0x00, 0x00, 0x4e, 0x6d, 0xe5, 0x6d};
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::vector<uint8_t> bytes(expected.size() + 1);
  bytes.resize(std::fread(bytes.data(), 1, bytes.size(), f));
  std::fclose(f);
  EXPECT_EQ(bytes, expected);
}

TEST(SignatureIndexPersistenceTest, RoundTripPreservesEverything) {
  const RoadNetwork graph = MakeRandomPlanar({.num_nodes = 400, .seed = 9});
  const std::vector<NodeId> objects = UniformDataset(graph, 0.05, 9);
  const auto original = BuildSignatureIndex(graph, objects, {.t = 5, .c = 2});
  const std::string path = TempPath("index.bin");
  ASSERT_TRUE(SaveSignatureIndex(*original, path).ok());
  auto loaded_or = LoadSignatureIndex(graph, path);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status();
  const auto& loaded = *loaded_or;

  EXPECT_EQ(loaded->objects(), original->objects());
  EXPECT_EQ(loaded->partition().num_categories(),
            original->partition().num_categories());
  EXPECT_EQ(loaded->size_stats().compressed_bits,
            original->size_stats().compressed_bits);
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    EXPECT_EQ(testing_util::StagedRow(*loaded, n),
              testing_util::StagedRow(*original, n))
        << "node " << n;
  }
  // Object table intact (far markers and values).
  for (uint32_t u = 0; u < objects.size(); ++u) {
    for (uint32_t v = 0; v < objects.size(); ++v) {
      ASSERT_EQ(loaded->object_table().IsFar(u, v),
                original->object_table().IsFar(u, v));
      if (!loaded->object_table().IsFar(u, v)) {
        EXPECT_EQ(loaded->object_table().Get(u, v),
                  original->object_table().Get(u, v));
      }
    }
  }
}

TEST(SignatureIndexPersistenceTest, LoadedIndexAnswersQueries) {
  const RoadNetwork graph = MakeRandomPlanar({.num_nodes = 350, .seed = 2});
  const std::vector<NodeId> objects = UniformDataset(graph, 0.04, 2);
  const auto original = BuildSignatureIndex(graph, objects, {.t = 5, .c = 2});
  const std::string path = TempPath("index_q.bin");
  ASSERT_TRUE(SaveSignatureIndex(*original, path).ok());
  auto loaded_or = LoadSignatureIndex(graph, path);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status();
  const auto& loaded = *loaded_or;
  const auto truth = testing_util::BruteForceDistances(graph, objects);
  for (const NodeId n : testing_util::SampleNodes(graph, 10, 3)) {
    for (uint32_t o = 0; o < objects.size(); ++o) {
      EXPECT_EQ(ExactDistance(*loaded, n, o), truth[o][n]);
    }
  }
}

TEST(SignatureIndexPersistenceTest, VerifyOnLoadAcceptsACleanIndex) {
  const RoadNetwork graph = MakeRandomPlanar({.num_nodes = 250, .seed = 11});
  const std::vector<NodeId> objects = UniformDataset(graph, 0.05, 11);
  const auto original = BuildSignatureIndex(graph, objects, {.t = 5, .c = 2});
  const std::string path = TempPath("index_v.bin");
  ASSERT_TRUE(SaveSignatureIndex(*original, path).ok());
  const auto loaded =
      LoadSignatureIndex(graph, path, {.verify = true, .faults = {}});
  ASSERT_TRUE(loaded.ok()) << loaded.status();
}

TEST(SignatureIndexPersistenceTest, RebuildForestEnablesUpdates) {
  RoadNetwork graph = MakeRandomPlanar({.num_nodes = 200, .seed = 4});
  const std::vector<NodeId> objects = UniformDataset(graph, 0.05, 4);
  const auto original = BuildSignatureIndex(graph, objects, {.t = 5, .c = 2});
  const std::string path = TempPath("index_u.bin");
  ASSERT_TRUE(SaveSignatureIndex(*original, path).ok());
  auto loaded_or = LoadSignatureIndex(graph, path);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status();
  auto& loaded = *loaded_or;
  EXPECT_EQ(loaded->forest(), nullptr);
  loaded->RebuildForest();
  ASSERT_NE(loaded->forest(), nullptr);
  SignatureUpdater updater(&graph, loaded.get());
  const UpdateStats stats = updater.SetEdgeWeight(0, graph.edge_weight(0) + 3);
  // The update machinery works on the rebuilt forest.
  const auto truth = testing_util::BruteForceDistances(graph, objects);
  for (uint32_t o = 0; o < objects.size(); ++o) {
    EXPECT_EQ(ExactDistance(*loaded, 7, o), truth[o][7]);
  }
  (void)stats;
}

// Backtracking links and the spanning forest's parent slots are one byte,
// so no index addresses a node with more than 256 adjacency slots. A network
// that has one (an untrusted checkpoint, say) is refused before
// RebuildForest could meet a parent edge at slot 256 or beyond.
TEST(SignatureIndexPersistenceTest, RejectsNodeWithMoreSlotsThanALinkAddresses) {
  constexpr NodeId kNodes = 300;
  RoadNetwork line;
  RoadNetwork star;
  for (NodeId n = 0; n < kNodes; ++n) {
    line.AddNode({static_cast<double>(n), 0});
    star.AddNode({static_cast<double>(n), 0});
  }
  for (NodeId n = 0; n + 1 < kNodes; ++n) line.AddEdge(n, n + 1, 1);
  // Same node and edge-slot counts. Node 299 reaches node 0 only through its
  // last slot, 297: 299 -> 298 -> 0.
  for (NodeId n = 1; n < kNodes - 2; ++n) star.AddEdge(kNodes - 1, n, 1);
  star.AddEdge(kNodes - 1, kNodes - 2, 1);
  star.AddEdge(kNodes - 2, 0, 1);
  ASSERT_EQ(star.num_edge_slots(), line.num_edge_slots());
  ASSERT_GT(star.max_degree(), 256u);

  const auto index = BuildSignatureIndex(line, {0, kNodes - 1}, {});
  const std::string path = TempPath("index_star.bin");
  ASSERT_TRUE(SaveSignatureIndex(*index, path).ok());
  const auto loaded = LoadSignatureIndex(star, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition)
      << loaded.status();
}

TEST(SignatureIndexPersistenceTest, RejectsWrongGraph) {
  const RoadNetwork graph = MakeRandomPlanar({.num_nodes = 300, .seed = 6});
  const RoadNetwork other = MakeRandomPlanar({.num_nodes = 301, .seed = 6});
  const auto index =
      BuildSignatureIndex(graph, UniformDataset(graph, 0.05, 6),
                          {.t = 5, .c = 2});
  const std::string path = TempPath("index_w.bin");
  ASSERT_TRUE(SaveSignatureIndex(*index, path).ok());
  const auto mismatched = LoadSignatureIndex(other, path);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(mismatched.status().message().find("different network"),
            std::string::npos);
  EXPECT_TRUE(LoadSignatureIndex(graph, path).ok());
}

TEST(SignatureIndexPersistenceTest, InjectedReadFaultsSurfaceAsErrors) {
  const RoadNetwork graph = MakeRandomPlanar({.num_nodes = 150, .seed = 12});
  const auto index = BuildSignatureIndex(graph, UniformDataset(graph, 0.05, 12),
                                         {.t = 5, .c = 2});
  const std::string path = TempPath("index_f.bin");
  ASSERT_TRUE(SaveSignatureIndex(*index, path).ok());

  // Hard I/O error in the middle of the file.
  const auto io_failed =
      LoadSignatureIndex(graph, path, {.faults = {.fail_at = 500}});
  ASSERT_FALSE(io_failed.ok());
  EXPECT_EQ(io_failed.status().code(), StatusCode::kIoError);

  // Short read (file cut off beneath us).
  const auto truncated =
      LoadSignatureIndex(graph, path, {.faults = {.truncate_at = 700}});
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kCorruption);

  // Single flipped bit: some section checksum must catch it.
  const auto flipped = LoadSignatureIndex(
      graph, path, {.faults = {.flip_byte = 900, .flip_mask = 0x20}});
  ASSERT_FALSE(flipped.ok());
  EXPECT_EQ(flipped.status().code(), StatusCode::kCorruption);

  // kNoFault plans are inert.
  EXPECT_TRUE(LoadSignatureIndex(graph, path, {.faults = {}}).ok());
}

TEST(SignatureIndexPersistenceTest, HubLabelSectionRoundTrips) {
  const RoadNetwork graph = MakeRandomPlanar({.num_nodes = 200, .seed = 41});
  const auto index = BuildSignatureIndex(graph, UniformDataset(graph, 0.06, 41),
                                         {.t = 5, .c = 2});
  index->set_hub_labels(HubLabels::Build(graph, {}, nullptr));
  const std::string path = TempPath("index_labels.bin");
  ASSERT_TRUE(SaveSignatureIndex(*index, path).ok());

  // Loads (including a deep Verify, which covers VerifyStructure) and the
  // tier answers exactly what the in-memory build answers.
  auto loaded_or =
      LoadSignatureIndex(graph, path, {.verify = true, .faults = {}});
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status();
  const auto& loaded = *loaded_or;
  ASSERT_NE(loaded->hub_labels(), nullptr);
  ASSERT_TRUE(loaded->hub_labels()->ready());
  EXPECT_FALSE(loaded->hub_labels()->stale());
  for (const NodeId u : testing_util::SampleNodes(graph, 5, 41)) {
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      ASSERT_EQ(loaded->hub_labels()->Distance(u, v),
                index->hub_labels()->Distance(u, v));
    }
  }

  // A flipped byte inside the (trailing) label section is caught by its
  // section CRC. The labels are the last section before the 16-byte footer:
  // a u64 length, the blob and a u32 CRC, which must reach back past the
  // flipped byte at size - 200.
  const size_t label_section = 8 + index->hub_labels()->Serialize().size() + 4;
  ASSERT_GE(label_section + 16, 200u);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  FlipByte(path, size - 200, 0x08);
  const auto corrupt = LoadSignatureIndex(graph, path);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kCorruption);
}

TEST(SignatureIndexPersistenceTest, FilesWithoutLabelsStillLoad) {
  const RoadNetwork graph = MakeRandomPlanar({.num_nodes = 150, .seed = 43});
  const auto index = BuildSignatureIndex(graph, UniformDataset(graph, 0.06, 43),
                                         {.t = 5, .c = 2});
  const std::string path = TempPath("index_nolabels.bin");
  ASSERT_TRUE(SaveSignatureIndex(*index, path).ok());
  auto loaded_or =
      LoadSignatureIndex(graph, path, {.verify = true, .faults = {}});
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status();
  EXPECT_EQ((*loaded_or)->hub_labels(), nullptr);
}

TEST(SignatureIndexPersistenceTest, StaleLabelsAreNotPersisted) {
  const RoadNetwork graph = MakeRandomPlanar({.num_nodes = 150, .seed = 47});
  const auto index = BuildSignatureIndex(graph, UniformDataset(graph, 0.06, 47),
                                         {.t = 5, .c = 2});
  index->set_hub_labels(HubLabels::Build(graph, {}, nullptr));
  index->InvalidateHubLabels();
  const std::string path = TempPath("index_stale.bin");
  ASSERT_TRUE(SaveSignatureIndex(*index, path).ok());
  auto loaded_or = LoadSignatureIndex(graph, path);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status();
  // Stale labels describe a network that no longer exists; the file must
  // come back without a label tier rather than with a wrong one.
  EXPECT_EQ((*loaded_or)->hub_labels(), nullptr);
}

}  // namespace
}  // namespace dsig
