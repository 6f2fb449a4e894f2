// Crash-consistent live updates: WAL + checkpoint orchestration.
//
// core/update_log.h gives the log file; core/update.h gives in-memory
// maintenance. DurableUpdater composes them into the full durability
// protocol a long-running deployment needs:
//
//   apply      append the record to the WAL (fsync per sync policy) and only
//              then mutate the index through SignatureUpdater.
//   checkpoint persist network.<seq>.ckpt + index.<seq>.ckpt with the atomic
//              temp+rename saves from persistence.h, commit them by renaming
//              a fresh WAL with base_seq = seq over wal.log, then move
//              appends to it and delete the superseded checkpoint pair.
//   recover    read the WAL header, load the checkpoint pair its base_seq
//              names, rebuild the spanning forest and replay every committed
//              record.
//
// The WAL header is the only commit record: the rename that installs a new
// log is the commit point of every checkpoint, so the log and the pair it
// names change together. A crash at any byte of the protocol recovers to
// either the old checkpoint + full old log or the new checkpoint + new log.
// Failure handling mirrors UpdateLog: WAL-side errors are sticky (an update
// whose log record may not be durable must not be applied), while a
// checkpoint that fails before the rename leaves the previous checkpoint +
// log fully valid and is reported but not latched.
#ifndef DSIG_IO_DURABLE_INDEX_H_
#define DSIG_IO_DURABLE_INDEX_H_

#include <memory>
#include <string>

#include "core/update.h"
#include "core/update_log.h"
#include "io/persistence.h"
#include "util/fault_plan.h"
#include "util/status.h"

namespace dsig {

struct DurableOptions {
  enum class SyncMode {
    kNone,        // never fsync between checkpoints (fastest, weakest)
    kCheckpoint,  // fsync the WAL only when a checkpoint begins
    kEveryRecord  // fsync after every append (classic WAL, default)
  };
  SyncMode sync = SyncMode::kEveryRecord;

  // Auto-checkpoint after this many applied records; 0 = manual only.
  uint64_t checkpoint_interval = 0;

  // Deterministic crash injection, keyed on absolute WAL byte offsets
  // (update_log.h). Applies to WAL appends and WAL creation.
  WriteFaultPlan wal_faults;

  // Crash injection for the checkpoint saves (network/index). The WAL
  // header that commits them is written under wal_faults.
  WriteFaultPlan checkpoint_faults;

  // Non-sticky checkpoint failures (any step up to and including the new
  // WAL's creation — the old checkpoint + WAL are still fully authoritative)
  // are retried up to this many more times, with a 2 ms backoff doubled per
  // attempt and jittered ±50%, before Checkpoint() reports the error.
  // Retries count update.ckpt_retries. A failure to open the committed log
  // is sticky and never retried: the failed state is already latched.
  int ckpt_retries = 0;

  // Test seam modelling *transient* I/O errors: when true, checkpoint_faults
  // fires on the first save attempt only and retries run fault-free.
  bool checkpoint_faults_transient = false;
};

struct RecoverOptions {
  // Run SignatureIndex::Verify() on the recovered index.
  bool verify = false;
};

// Single-writer durable façade over SignatureUpdater. Queries may run
// concurrently with Apply: they hold the index's EpochGate shared, each
// update holds it exclusively, so a query sees a whole update or none of it.
// Checkpoints read the rows without the gate, which is safe because they run
// on the writer's thread. A second concurrent writer is not allowed.
class DurableUpdater {
 public:
  // Everything Recover() hands back: the reloaded network and index (owned),
  // plus the updater positioned at the committed WAL tail.
  struct Recovered {
    std::unique_ptr<RoadNetwork> graph;
    std::unique_ptr<SignatureIndex> index;
    std::unique_ptr<DurableUpdater> updater;
    uint64_t replayed_records = 0;  // WAL records re-applied past the ckpt
  };

  // Lays out a fresh durable directory for an in-memory pair (which the
  // caller keeps owning): checkpoint files at seq 0, then the empty WAL
  // whose header commits them. `dir` must already exist and hold no
  // deployment: Initialize overwrites whatever wal.log and seq-0 pair it
  // finds there.
  static StatusOr<std::unique_ptr<DurableUpdater>> Initialize(
      const std::string& dir, RoadNetwork* graph, SignatureIndex* index,
      const DurableOptions& options = {});

  // Restores the deployment in `dir`: checkpoint load + committed-tail
  // replay, per the protocol above. The recovered index has its spanning
  // forest rebuilt and is ready for further Apply calls.
  static StatusOr<Recovered> Recover(const std::string& dir,
                                     const DurableOptions& options = {},
                                     const RecoverOptions& recover = {});

  DurableUpdater(const DurableUpdater&) = delete;
  DurableUpdater& operator=(const DurableUpdater&) = delete;
  ~DurableUpdater();

  // Log-then-apply. On a WAL failure the record is NOT applied, the error
  // latches, and every later Apply refuses with it. May trigger an
  // auto-checkpoint (options.checkpoint_interval).
  StatusOr<UpdateStats> Apply(const UpdateRecord& record);

  // Convenience wrappers building the record for the common mutations.
  StatusOr<UpdateStats> AddEdge(NodeId u, NodeId v, Weight weight) {
    return Apply(UpdateRecord::Add(u, v, weight));
  }
  StatusOr<UpdateStats> RemoveEdge(EdgeId edge) {
    return Apply(UpdateRecord::Remove(edge));
  }
  StatusOr<UpdateStats> SetEdgeWeight(EdgeId edge, Weight weight) {
    return Apply(UpdateRecord::SetWeight(edge, weight));
  }

  // Persists the current state and restarts the WAL. Callable any time the
  // writer is quiesced. A failure up to the new WAL's rename leaves the old
  // checkpoint + WAL fully authoritative (not sticky); failing to open the
  // committed log after it is sticky, because the next Apply could not be
  // logged.
  Status Checkpoint();

  // Flushes and closes the WAL (idempotent). Further Applies refuse.
  Status Close();

  const Status& status() const { return status_; }
  // Sequence number the next applied record will carry.
  uint64_t next_seq() const;
  uint64_t checkpoint_seq() const { return checkpoint_seq_; }
  uint64_t records_since_checkpoint() const;
  const std::string& dir() const { return dir_; }

  // File-name helpers, shared with tests and the chaos tool.
  static std::string WalPath(const std::string& dir);
  static std::string NetworkCheckpointPath(const std::string& dir,
                                           uint64_t seq);
  static std::string IndexCheckpointPath(const std::string& dir, uint64_t seq);

 private:
  DurableUpdater(std::string dir, RoadNetwork* graph, SignatureIndex* index,
                 const DurableOptions& options);

  Status OpenWal();

  std::string dir_;
  RoadNetwork* graph_;
  SignatureIndex* index_;
  DurableOptions options_;
  SignatureUpdater updater_;
  std::unique_ptr<UpdateLog> wal_;
  Status status_;
  uint64_t checkpoint_seq_ = 0;  // base_seq of the live WAL
  bool closed_ = false;
};

}  // namespace dsig

#endif  // DSIG_IO_DURABLE_INDEX_H_
