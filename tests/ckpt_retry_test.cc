// Bounded retry for non-sticky checkpoint failures (DurableOptions::
// ckpt_retries). A checkpoint that fails before the new WAL's rename leaves
// the old checkpoint + WAL fully authoritative, so retrying it is always
// safe; the checkpoint_faults_transient seam models an I/O error that
// clears on retry.
#include "io/durable_index.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "core/signature_builder.h"
#include "graph/graph_generator.h"
#include "obs/metrics.h"
#include "workload/dataset_generator.h"

namespace dsig {
namespace {

std::string TempDir(const std::string& name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

uint64_t RetryCount() {
  return obs::MetricsRegistry::Global()
      .GetCounter("update.ckpt_retries")
      ->Value();
}

struct Deployment {
  std::string dir;
  DurableUpdater::Recovered live;
};

// Initialize a fresh durable dir fault-free, then reopen it under `options`
// — the options carrying the checkpoint faults must not poison the initial
// checkpoint pair Initialize writes.
Deployment MakeDeployment(const std::string& name,
                          const DurableOptions& options) {
  Deployment d;
  d.dir = TempDir(name);
  RoadNetwork g = MakeRandomPlanar({.num_nodes = 300, .seed = 11});
  const std::vector<NodeId> objects = UniformDataset(g, 0.05, 11);
  auto index =
      BuildSignatureIndex(g, objects, {.t = 5, .c = 2, .keep_forest = true});
  auto initialized = DurableUpdater::Initialize(d.dir, &g, index.get(), {});
  EXPECT_TRUE(initialized.ok()) << initialized.status().ToString();
  if (initialized.ok()) (*initialized)->Close();

  auto recovered = DurableUpdater::Recover(d.dir, options);
  EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
  d.live = std::move(recovered).value();
  return d;
}

TEST(CkptRetryTest, TransientFaultRetriesToSuccess) {
  DurableOptions options;
  options.checkpoint_faults.fail_at = 0;  // first save attempt dies at byte 0
  options.checkpoint_faults_transient = true;
  options.ckpt_retries = 2;
  Deployment d = MakeDeployment("ckpt_retry_transient", options);
  DurableUpdater& updater = *d.live.updater;

  ASSERT_TRUE(updater.AddEdge(1, 7, 3.0).ok());
  ASSERT_TRUE(updater.AddEdge(2, 9, 4.0).ok());

  const uint64_t retries_before = RetryCount();
  const Status checkpointed = updater.Checkpoint();
  EXPECT_TRUE(checkpointed.ok()) << checkpointed.ToString();
  EXPECT_EQ(updater.checkpoint_seq(), 2u);
  EXPECT_GE(RetryCount(), retries_before + 1);

  // The retried checkpoint is a real one: recovery lands on it directly.
  updater.Close();
  RecoverOptions verify;
  verify.verify = true;
  auto recovered = DurableUpdater::Recover(d.dir, {}, verify);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->updater->checkpoint_seq(), 2u);
  EXPECT_EQ(recovered->replayed_records, 0u);
}

TEST(CkptRetryTest, PersistentFaultReportsAfterBoundedRetries) {
  DurableOptions options;
  options.checkpoint_faults.fail_at = 0;
  options.checkpoint_faults_transient = false;  // every attempt fails
  options.ckpt_retries = 1;
  Deployment d = MakeDeployment("ckpt_retry_persistent", options);
  DurableUpdater& updater = *d.live.updater;

  ASSERT_TRUE(updater.AddEdge(1, 7, 3.0).ok());

  const uint64_t retries_before = RetryCount();
  EXPECT_FALSE(updater.Checkpoint().ok());
  EXPECT_EQ(RetryCount(), retries_before + 1);  // bounded: exactly 1 retry

  // Non-sticky: the updater keeps accepting work, and the old checkpoint +
  // full WAL remain the authoritative deployment.
  EXPECT_TRUE(updater.status().ok());
  EXPECT_TRUE(updater.AddEdge(3, 12, 5.0).ok());
  EXPECT_EQ(updater.checkpoint_seq(), 0u);
  updater.Close();

  auto recovered = DurableUpdater::Recover(d.dir, {});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->updater->checkpoint_seq(), 0u);
  EXPECT_EQ(recovered->replayed_records, 2u);  // both updates replayed
}

TEST(CkptRetryTest, NoRetriesByDefault) {
  DurableOptions options;
  options.checkpoint_faults.fail_at = 0;
  Deployment d = MakeDeployment("ckpt_retry_default", options);
  DurableUpdater& updater = *d.live.updater;
  ASSERT_TRUE(updater.AddEdge(1, 7, 3.0).ok());

  const uint64_t retries_before = RetryCount();
  EXPECT_FALSE(updater.Checkpoint().ok());
  EXPECT_EQ(RetryCount(), retries_before);  // default: fail fast, no retry
  updater.Close();
}

}  // namespace
}  // namespace dsig
