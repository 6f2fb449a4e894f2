#include "io/durable_index.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "obs/metrics.h"
#include "util/random.h"

namespace dsig {
namespace {

// Base of the checkpoint retry backoff, doubled per attempt and jittered
// ±50% from a fixed seed, so retry timing is reproducible run to run.
constexpr double kCkptRetryBackoffMs = 2;

obs::Counter* CheckpointCounter() {
  static obs::Counter* const c =
      obs::MetricsRegistry::Global().GetCounter("wal.checkpoints");
  return c;
}

obs::Counter* CheckpointRetryCounter() {
  static obs::Counter* const c =
      obs::MetricsRegistry::Global().GetCounter("update.ckpt_retries");
  return c;
}

}  // namespace

std::string DurableUpdater::WalPath(const std::string& dir) {
  return dir + "/wal.log";
}
std::string DurableUpdater::NetworkCheckpointPath(const std::string& dir,
                                                  uint64_t seq) {
  return dir + "/network." + std::to_string(seq) + ".ckpt";
}
std::string DurableUpdater::IndexCheckpointPath(const std::string& dir,
                                                uint64_t seq) {
  return dir + "/index." + std::to_string(seq) + ".ckpt";
}

DurableUpdater::DurableUpdater(std::string dir, RoadNetwork* graph,
                               SignatureIndex* index,
                               const DurableOptions& options)
    : dir_(std::move(dir)),
      graph_(graph),
      index_(index),
      options_(options),
      updater_(graph, index) {}

DurableUpdater::~DurableUpdater() { Close(); }

Status DurableUpdater::OpenWal() {
  auto wal = UpdateLog::Open(WalPath(dir_), options_.wal_faults);
  if (!wal.ok()) return wal.status();
  wal_ = std::move(wal).value();
  return Status::Ok();
}

StatusOr<std::unique_ptr<DurableUpdater>> DurableUpdater::Initialize(
    const std::string& dir, RoadNetwork* graph, SignatureIndex* index,
    const DurableOptions& options) {
  // Checkpoint pair first, WAL last: the WAL's rename is the commit point,
  // so a crash anywhere earlier leaves no readable deployment.
  const SaveOptions save{options.checkpoint_faults};
  DSIG_RETURN_IF_ERROR(
      SaveRoadNetwork(*graph, NetworkCheckpointPath(dir, 0), save));
  DSIG_RETURN_IF_ERROR(
      SaveSignatureIndex(*index, IndexCheckpointPath(dir, 0), save));
  DSIG_RETURN_IF_ERROR(UpdateLog::Create(WalPath(dir), 0, options.wal_faults));

  std::unique_ptr<DurableUpdater> updater(
      new DurableUpdater(dir, graph, index, options));
  DSIG_RETURN_IF_ERROR(updater->OpenWal());
  return updater;
}

StatusOr<DurableUpdater::Recovered> DurableUpdater::Recover(
    const std::string& dir, const DurableOptions& options,
    const RecoverOptions& recover) {
  // The WAL header names the checkpoint the log extends; scan the committed
  // tail before touching anything else.
  auto replay = UpdateLog::Replay(WalPath(dir));
  if (!replay.ok()) return replay.status();
  const uint64_t checkpoint_seq = replay->base_seq;

  Recovered result;
  auto graph = LoadRoadNetwork(NetworkCheckpointPath(dir, checkpoint_seq));
  if (!graph.ok()) return graph.status();
  result.graph = std::move(graph).value();
  auto index = LoadSignatureIndex(*result.graph,
                                  IndexCheckpointPath(dir, checkpoint_seq));
  if (!index.ok()) return index.status();
  result.index = std::move(index).value();
  // Checkpoints do not persist the spanning forest; replay needs it.
  result.index->RebuildForest();

  result.updater.reset(
      new DurableUpdater(dir, result.graph.get(), result.index.get(), options));
  result.updater->checkpoint_seq_ = checkpoint_seq;
  DSIG_RETURN_IF_ERROR(result.updater->OpenWal());

  // Every committed record postdates the checkpoint: re-apply them all.
  for (const UpdateRecord& record : replay->records) {
    DSIG_RETURN_IF_ERROR(record.CheckApplicable(*result.graph));
    result.updater->updater_.Apply(record);
  }
  result.replayed_records = replay->records.size();
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("wal.recoveries")->Add(1);
  registry.GetCounter("wal.replayed_records")->Add(result.replayed_records);

  if (recover.verify) DSIG_RETURN_IF_ERROR(result.index->Verify());
  return result;
}

uint64_t DurableUpdater::next_seq() const {
  return wal_ == nullptr ? 0 : wal_->base_seq() + wal_->record_count() + 1;
}

uint64_t DurableUpdater::records_since_checkpoint() const {
  // The open log always extends the live checkpoint.
  return wal_ == nullptr ? 0 : wal_->record_count();
}

StatusOr<UpdateStats> DurableUpdater::Apply(const UpdateRecord& record) {
  if (!status_.ok()) return status_;
  if (closed_ || wal_ == nullptr) {
    return Status::FailedPrecondition("durable updater is closed");
  }
  // Reject malformed records before they reach the log: a record that could
  // not replay must never be written.
  {
    const Status applicable = record.CheckApplicable(*graph_);
    if (!applicable.ok()) {
      return Status::InvalidArgument("rejected update: " +
                                     applicable.message());
    }
  }

  // Log first. A WAL failure latches: the mutation is NOT applied, so the
  // in-memory state never runs ahead of what recovery can reproduce.
  Status logged = wal_->Append(record);
  if (logged.ok() && options_.sync == DurableOptions::SyncMode::kEveryRecord) {
    logged = wal_->Sync();
  }
  if (!logged.ok()) {
    status_ = logged;
    return status_;
  }

  const UpdateStats stats = updater_.Apply(record);

  if (options_.checkpoint_interval > 0 &&
      records_since_checkpoint() >= options_.checkpoint_interval) {
    // Auto-checkpoint. The update above is already durable in the WAL, so a
    // non-sticky checkpoint failure (old checkpoint + log still fully
    // authoritative) does not fail the Apply; a sticky one latches into
    // status_ and the *next* Apply refuses.
    Checkpoint();
  }
  return stats;
}

Status DurableUpdater::Checkpoint() {
  if (!status_.ok()) return status_;
  if (closed_ || wal_ == nullptr) {
    return Status::FailedPrecondition("durable updater is closed");
  }
  // Commit the log tail first so the checkpointed state is a superset of the
  // durable log — required for base_seq to be honest.
  DSIG_RETURN_IF_ERROR(wal_->Sync());
  const uint64_t seq = wal_->base_seq() + wal_->record_count();

  // Until the new WAL's rename, the previous checkpoint + the still-open
  // old log stay authoritative: failures are reported, not latched, and are
  // safely retryable. Each step is all-or-nothing (temp + rename), so a
  // retry never sees a partial file from the previous attempt, and a pair
  // orphaned by a failed attempt is overwritten by the next one at `seq`.
  WriteFaultPlan faults = options_.checkpoint_faults;
  Random jitter(1);
  for (int attempt = 0;; ++attempt) {
    Status saved = SaveRoadNetwork(*graph_, NetworkCheckpointPath(dir_, seq),
                                   SaveOptions{faults});
    if (saved.ok()) {
      saved = SaveSignatureIndex(*index_, IndexCheckpointPath(dir_, seq),
                                 SaveOptions{faults});
    }
    if (saved.ok()) {
      saved = UpdateLog::Create(WalPath(dir_), seq, options_.wal_faults);
    }
    if (saved.ok()) break;
    if (attempt >= options_.ckpt_retries) return saved;
    CheckpointRetryCounter()->Add(1);
    if (options_.checkpoint_faults_transient) faults = WriteFaultPlan{};
    const double backoff_ms = kCkptRetryBackoffMs *
                              std::pow(2.0, static_cast<double>(attempt)) *
                              jitter.NextDouble(0.5, 1.5);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(backoff_ms));
  }

  // Committed: the new log names the new pair. Move appends to it.
  const uint64_t old_seq = checkpoint_seq_;
  checkpoint_seq_ = seq;
  CheckpointCounter()->Add(1);
  wal_->Close();
  wal_.reset();
  const Status reopened = OpenWal();
  if (!reopened.ok()) {
    // No appendable log at all: nothing further can be made durable.
    status_ = reopened;
    return status_;
  }
  if (old_seq != seq) {
    std::remove(NetworkCheckpointPath(dir_, old_seq).c_str());
    std::remove(IndexCheckpointPath(dir_, old_seq).c_str());
  }
  return Status::Ok();
}

Status DurableUpdater::Close() {
  if (closed_) return status_;
  closed_ = true;
  if (wal_ != nullptr) {
    const Status closed = wal_->Close();
    if (status_.ok() && !closed.ok()) status_ = closed;
    wal_.reset();
  }
  return status_;
}

}  // namespace dsig
