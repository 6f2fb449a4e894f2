// Power-loss model of the durable-update protocol: ALICE's crash-state
// exploration (Pillai et al., "All File Systems Are Not Created Equal",
// OSDI 2014), run in-process. util/binary_io reports every durable step it
// takes (a file fsync, a rename, a directory fsync, a remove) to a
// DurableStepRecorder, and the test replays the recorded steps as a file
// system that keeps only what a power cut must keep:
//   * a file keeps only the bytes it held at its last fsync;
//   * a rename, a remove or a new name survives only if a later directory
//     fsync covered it.
// After every step it writes the surviving directory out, recovers it, and
// checks that no acknowledged record or checkpoint was lost. The same steps
// with the directory fsyncs, or the checkpoint temps' fsyncs, filtered out
// (an order that lacks them) must lose one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/distance_ops.h"
#include "core/signature_builder.h"
#include "core/update_log.h"
#include "graph/graph_generator.h"
#include "io/durable_index.h"
#include "tests/test_util.h"
#include "util/binary_io.h"
#include "util/random.h"
#include "workload/dataset_generator.h"

namespace dsig {
namespace {

constexpr int kRecords = 40;
constexpr uint64_t kCheckpointInterval = 16;  // two auto-checkpoints

// Per test, so ctest can run the tests side by side.
std::string TempDir(const std::string& name) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/" + name + "_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::vector<uint8_t> bytes(std::filesystem::file_size(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

std::string NameOf(const std::string& path) {
  return std::filesystem::path(path).filename().string();
}

RoadNetwork MakeGraph() {
  return MakeRandomPlanar({.num_nodes = 300, .seed = 61});
}

// Weight changes on original edges and new edges, so every prefix applies.
std::vector<UpdateRecord> MakeScript(const RoadNetwork& graph) {
  std::vector<UpdateRecord> script;
  Random rng(62);
  for (int i = 0; i < kRecords; ++i) {
    if (i % 3 == 0) {
      const NodeId u = static_cast<NodeId>(rng.NextUint64(graph.num_nodes()));
      NodeId v = static_cast<NodeId>(rng.NextUint64(graph.num_nodes()));
      if (u == v) v = (v + 1) % static_cast<NodeId>(graph.num_nodes());
      script.push_back(UpdateRecord::Add(u, v, rng.NextInt(1, 10)));
    } else {
      const EdgeId e =
          static_cast<EdgeId>(rng.NextUint64(graph.num_edge_slots()));
      script.push_back(UpdateRecord::SetWeight(e, rng.NextInt(1, 10)));
    }
  }
  return script;
}

struct Step {
  DurableStep step;
  std::vector<uint8_t> bytes;  // a file fsync's durable content
};

// One run of Initialize, kRecords Applys under kEveryRecord and Close, with
// the point (a count of steps taken) each call returned at.
struct Recording {
  std::vector<Step> steps;
  size_t initialized = 0;
  std::vector<size_t> acknowledged;  // Apply i returned OK after this many
};

Recording Record(const std::vector<NodeId>& objects,
                 const std::vector<UpdateRecord>& script) {
  Recording rec;
  const std::string dir = TempDir("power_loss_live");
  RoadNetwork g = MakeGraph();
  auto index = BuildSignatureIndex(g, objects, {.t = 5, .c = 2});
  DurableOptions options;
  options.checkpoint_interval = kCheckpointInterval;

  const DurableStepRecorder recorder([&rec](const DurableStep& step) {
    Step s{step, {}};
    if (step.kind == DurableStep::kFileSync) s.bytes = ReadFile(step.path);
    rec.steps.push_back(std::move(s));
  });
  auto live = DurableUpdater::Initialize(dir, &g, index.get(), options);
  EXPECT_TRUE(live.ok()) << live.status();
  if (!live.ok()) return rec;
  rec.initialized = rec.steps.size();
  for (const UpdateRecord& record : script) {
    const auto applied = (*live)->Apply(record);
    EXPECT_TRUE(applied.ok()) << applied.status();
    rec.acknowledged.push_back(rec.steps.size());
  }
  EXPECT_EQ((*live)->checkpoint_seq(), 2 * kCheckpointInterval);
  EXPECT_TRUE((*live)->Close().ok());
  return rec;
}

// The files a power cut after steps[0, count) leaves: name -> bytes.
std::map<std::string, std::vector<uint8_t>> Survivors(
    const std::vector<Step>& steps, size_t count) {
  std::vector<std::vector<uint8_t>> inodes;  // each file's fsync'd bytes
  std::map<std::string, size_t> names;       // the live directory
  std::map<std::string, size_t> durable;     // as of its last fsync
  const auto inode_of = [&](const std::string& name) {
    const auto it = names.find(name);
    if (it != names.end()) return it->second;
    inodes.emplace_back();  // created since, and never fsync'd
    return names[name] = inodes.size() - 1;
  };
  for (size_t i = 0; i < count; ++i) {
    const DurableStep& s = steps[i].step;
    switch (s.kind) {
      case DurableStep::kFileSync:
        inodes[inode_of(NameOf(s.path))] = steps[i].bytes;
        break;
      case DurableStep::kRename: {
        const size_t inode = inode_of(NameOf(s.path));
        names.erase(NameOf(s.path));
        names[NameOf(s.target)] = inode;
        break;
      }
      case DurableStep::kDirSync:
        durable = names;
        break;
      case DurableStep::kRemove:
        names.erase(NameOf(s.path));
        break;
    }
  }
  std::map<std::string, std::vector<uint8_t>> files;
  for (const auto& [name, inode] : durable) files[name] = inodes[inode];
  return files;
}

void ExpectSameNetwork(const RoadNetwork& got, const RoadNetwork& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  ASSERT_EQ(got.num_edge_slots(), want.num_edge_slots());
  for (EdgeId e = 0; e < want.num_edge_slots(); ++e) {
    ASSERT_EQ(got.edge_endpoints(e), want.edge_endpoints(e)) << "edge " << e;
    ASSERT_EQ(got.edge_removed(e), want.edge_removed(e)) << "edge " << e;
    ASSERT_EQ(got.edge_weight(e), want.edge_weight(e)) << "edge " << e;
  }
}

// The recovered network is `state`, and its index answers exact distances
// on it.
void ExpectState(const DurableUpdater::Recovered& recovered,
                 const RoadNetwork& state, const std::vector<NodeId>& objects,
                 uint64_t seed) {
  ExpectSameNetwork(*recovered.graph, state);
  const auto truth = testing_util::BruteForceDistances(state, objects);
  for (const NodeId n : testing_util::SampleNodes(state, 4, seed)) {
    for (uint32_t o = 0; o < objects.size(); ++o) {
      ASSERT_EQ(ExactDistance(*recovered.index, n, o), truth[o][n])
          << "node " << n << " object " << o;
    }
  }
}

// The same recording with the steps `drop` selects filtered out; each call
// still returns once the steps it took before are taken.
Recording Without(const Recording& rec,
                  const std::function<bool(const DurableStep&)>& drop) {
  Recording out;
  std::vector<size_t> kept_before = {0};  // kept steps among the first p
  for (const Step& s : rec.steps) {
    if (!drop(s.step)) out.steps.push_back(s);
    kept_before.push_back(out.steps.size());
  }
  out.initialized = kept_before[rec.initialized];
  for (const size_t at : rec.acknowledged) {
    out.acknowledged.push_back(kept_before[at]);
  }
  return out;
}

// Crash points, of those after Initialize returned, that lose the
// deployment or an acknowledged record or checkpoint. With `check` the
// test also requires that none does, and that every recovered state is the
// network after its first k records, with an index that verifies and
// answers exact distances on it.
int CountLosses(const Recording& rec, const std::vector<NodeId>& objects,
                const std::vector<UpdateRecord>& script, bool check) {
  std::vector<RoadNetwork> states(script.size() + 1);  // after k records
  for (size_t k = 0; k < states.size(); ++k) {
    states[k] = MakeGraph();
    for (size_t i = 0; i < k; ++i) {
      EXPECT_TRUE(script[i].ApplyTo(&states[k]).ok());
    }
  }

  int losses = 0;
  for (size_t count = 0; count <= rec.steps.size(); ++count) {
    SCOPED_TRACE("power cut after " + std::to_string(count) + " steps");
    const std::string dir = TempDir("power_loss_crash");
    for (const auto& [name, bytes] : Survivors(rec.steps, count)) {
      WriteFile(dir + "/" + name, bytes);
    }
    uint64_t acked = 0;
    for (const size_t at : rec.acknowledged) acked += at <= count ? 1 : 0;
    const uint64_t acked_ckpt =
        acked / kCheckpointInterval * kCheckpointInterval;

    RecoverOptions verify;
    verify.verify = check;
    auto recovered = DurableUpdater::Recover(dir, {}, verify);
    if (!recovered.ok()) {
      if (count < rec.initialized) continue;  // no deployment was promised
      ++losses;
      EXPECT_FALSE(check) << "recovery failed: " << recovered.status();
      continue;
    }
    const uint64_t k = recovered->updater->next_seq() - 1;
    if (k < acked || recovered->updater->checkpoint_seq() < acked_ckpt) {
      ++losses;
      EXPECT_FALSE(check) << "recovered " << k << " records at checkpoint "
                          << recovered->updater->checkpoint_seq() << ", "
                          << acked << " acknowledged";
      continue;
    }
    if (check) {
      EXPECT_LE(k, script.size());
      ExpectState(*recovered, states[std::min<size_t>(k, script.size())],
                  objects, count);
    }
  }
  return losses;
}

class PowerLossTest : public ::testing::Test {
 protected:
  void SetUp() override {
    objects_ = UniformDataset(MakeGraph(), 0.05, 61);
    script_ = MakeScript(MakeGraph());
    rec_ = Record(objects_, script_);
    ASSERT_EQ(rec_.acknowledged.size(), script_.size());
  }

  std::vector<NodeId> objects_;
  std::vector<UpdateRecord> script_;
  Recording rec_;
};

TEST_F(PowerLossTest, NoCrashPointLosesAnAcknowledgedRecordOrCheckpoint) {
  int syncs = 0, renames = 0, dir_syncs = 0, removes = 0;
  for (const Step& s : rec_.steps) {
    syncs += s.step.kind == DurableStep::kFileSync;
    renames += s.step.kind == DurableStep::kRename;
    dir_syncs += s.step.kind == DurableStep::kDirSync;
    removes += s.step.kind == DurableStep::kRemove;
  }
  // Three AtomicReplaces for Initialize and for each checkpoint, two pairs
  // superseded.
  EXPECT_EQ(renames, 9);
  EXPECT_EQ(dir_syncs, 9);
  EXPECT_EQ(removes, 4);
  EXPECT_GE(syncs, 9 + kRecords);
  EXPECT_EQ(CountLosses(rec_, objects_, script_, true), 0);
  std::printf("power-loss model: %zu crash points (%d fsyncs, %d renames, "
              "%d directory fsyncs, %d removes), none loses anything\n",
              rec_.steps.size() + 1, syncs, renames, dir_syncs, removes);
}

TEST_F(PowerLossTest, WithoutDirectoryFsyncsACrashLosesTheDeployment) {
  const Recording filtered = Without(rec_, [](const DurableStep& s) {
    return s.kind == DurableStep::kDirSync;
  });
  const int losses = CountLosses(filtered, objects_, script_, false);
  EXPECT_GT(losses, 0);
  std::printf("without directory fsyncs: %d of %zu crash points after "
              "Initialize lose data\n",
              losses, filtered.steps.size() + 1 - filtered.initialized);
}

TEST_F(PowerLossTest, WithoutCheckpointTempFsyncsACrashLosesTheDeployment) {
  const Recording filtered = Without(rec_, [](const DurableStep& s) {
    return s.kind == DurableStep::kFileSync && s.path.ends_with(".ckpt.tmp");
  });
  const int losses = CountLosses(filtered, objects_, script_, false);
  EXPECT_GT(losses, 0);
  std::printf("without checkpoint temp fsyncs: %d of %zu crash points after "
              "Initialize lose data\n",
              losses, filtered.steps.size() + 1 - filtered.initialized);
}

}  // namespace
}  // namespace dsig
