// Write-ahead log for live network updates (paper §5.4 made crash-safe).
//
// The paper's update argument is locality — an edge change rewrites only the
// signature rows it touches — but locality says nothing about a process that
// dies mid-rewrite. The durability protocol is the classic one: every
// AddEdge/RemoveEdge/SetEdgeWeight is appended to this log (and optionally
// fsync'd) *before* the in-memory index mutates, and periodic checkpoints
// persist the full network+index with atomic temp+rename saves, after which
// the log restarts from the checkpoint's sequence number. Recovery loads the
// checkpoint the log's header names and replays the committed log tail.
//
// On-disk format (little-endian, matching io/binary_io conventions):
//
//   header   magic "DSWL" (u32) · version (u32) · base_seq (u64) ·
//            crc32c(preceding 16 bytes) (u32)
//   record*  payload_len (u32) · crc32c(payload) (u32) · payload
//   payload  op (u8) · a (u32) · b (u32) · weight (f64)
//
// Record i (0-based) carries implicit sequence number base_seq + i + 1. The
// header is the commit record of the checkpoint at base_seq: a checkpoint
// installs a fresh log by temp+rename, so a log never holds a record its
// checkpoint already absorbed and recovery replays every committed record
// (replaying an absorbed AddEdge would allocate a duplicate EdgeId and shift
// every later id).
//
// Torn-tail policy (the crash-consistency contract, exercised byte-by-byte
// by tests/update_chaos_test.cc): a record frame that runs past end-of-file,
// or whose checksum fails *with nothing after it*, is a torn tail from a
// crash mid-append — it is silently discarded and the log is valid up to the
// previous record. A checksum failure with more committed bytes *after* it
// can only be bit rot, never a torn write, and fails with kCorruption.
//
// Errors are sticky, like BinaryWriter: the first failed append latches into
// status() and every later append/sync refuses, so a caller can never commit
// an update whose log record did not reach the file.
#ifndef DSIG_CORE_UPDATE_LOG_H_
#define DSIG_CORE_UPDATE_LOG_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "graph/road_network.h"
#include "util/fault_plan.h"
#include "util/status.h"

namespace dsig {

// One logged network mutation. `a`/`b` are overloaded by op, mirroring the
// RoadNetwork mutation API exactly so replay is mechanical.
struct UpdateRecord {
  enum Op : uint8_t {
    kAddEdge = 1,        // a = node u, b = node v, weight
    kRemoveEdge = 2,     // a = edge id
    kSetEdgeWeight = 3,  // a = edge id, weight
  };

  uint8_t op = kAddEdge;
  uint32_t a = 0;
  uint32_t b = 0;
  double weight = 0;

  static UpdateRecord Add(NodeId u, NodeId v, Weight w) {
    return UpdateRecord{kAddEdge, u, v, w};
  }
  static UpdateRecord Remove(EdgeId e) {
    return UpdateRecord{kRemoveEdge, e, 0, 0};
  }
  static UpdateRecord SetWeight(EdgeId e, Weight w) {
    return UpdateRecord{kSetEdgeWeight, e, 0, w};
  }

  bool operator==(const UpdateRecord& o) const {
    return op == o.op && a == o.a && b == o.b && weight == o.weight;
  }

  // Semantic validation replay relies on (op in range, AddEdge endpoints
  // distinct, weights finite and positive where required). A record that
  // passes the CRC but fails this is corruption the checksum missed.
  Status Validate() const;

  // Validate() plus the range checks against the *current* graph (endpoints
  // exist, the edge id names a live edge) that a record must pass before it
  // can mutate anything: SignatureUpdater's own preconditions are
  // DSIG_CHECKs, not Statuses.
  Status CheckApplicable(const RoadNetwork& graph) const;

  // CheckApplicable, then applies this record to `graph`. AddEdge allocates
  // the next sequential EdgeId, so replaying the same record stream against
  // the same starting graph reproduces edge ids exactly.
  Status ApplyTo(RoadNetwork* graph) const;
};

// Result of scanning a log: the committed record prefix plus where it ends.
struct WalReplay {
  uint64_t base_seq = 0;              // checkpoint seq this log extends
  std::vector<UpdateRecord> records;  // committed records, in append order
  uint64_t committed_bytes = 0;       // header + committed frames
  uint64_t torn_bytes = 0;            // crash-torn tail bytes discarded
};

// Append-side handle on a write-ahead log file. Not thread-safe: the update
// protocol has a single writer (core/update.h's exclusive UpdateGuard).
class UpdateLog {
 public:
  static constexpr uint32_t kMagic = 0x4C575344;  // "DSWL"
  static constexpr uint32_t kVersion = 1;
  static constexpr uint64_t kHeaderBytes = 4 + 4 + 8 + 4;
  static constexpr uint64_t kPayloadBytes = 1 + 4 + 4 + 8;
  static constexpr uint64_t kFrameBytes = 4 + 4 + kPayloadBytes;

  // Creates (or atomically replaces, via temp+rename) an empty log at `path`
  // extending checkpoint `base_seq`, fsync'd before the rename so a crash at
  // any byte leaves either the old log or a complete new one.
  static Status Create(const std::string& path, uint64_t base_seq,
                       const WriteFaultPlan& faults = {});

  // Scans `path`, validating every frame, and returns the committed prefix
  // under the torn-tail policy above. Never aborts; corruption that cannot
  // be a torn write returns kCorruption.
  static StatusOr<WalReplay> Replay(const std::string& path,
                                    const ReadFaultPlan& faults = {});

  // Opens an existing log for appending: replays it, truncates any torn
  // tail, and positions at the committed end.
  static StatusOr<std::unique_ptr<UpdateLog>> Open(
      const std::string& path, const WriteFaultPlan& faults = {});

  ~UpdateLog();
  UpdateLog(const UpdateLog&) = delete;
  UpdateLog& operator=(const UpdateLog&) = delete;

  // Appends one record frame (buffered). The injected fault plan is keyed on
  // absolute log byte offsets and models a crash: bytes before `fail_at`
  // reach the file, nothing at or after it does — so every-byte crash sweeps
  // can place the torn boundary anywhere inside a frame.
  Status Append(const UpdateRecord& record);

  // Flushes stdio buffers and fsyncs the file. Durability point: a record is
  // committed once Sync() returns OK after its Append.
  Status Sync();

  // Flush + fsync + close; idempotent; returns the sticky status.
  Status Close();

  const Status& status() const { return status_; }
  uint64_t base_seq() const { return base_seq_; }
  // Records in the log (existing committed + appended). The next record
  // appended gets sequence number base_seq() + record_count() + 1.
  uint64_t record_count() const { return record_count_; }
  uint64_t bytes() const { return bytes_; }

 private:
  UpdateLog() = default;

  void WriteRaw(const void* data, size_t size);

  std::FILE* file_ = nullptr;
  Status status_;
  uint64_t base_seq_ = 0;
  uint64_t record_count_ = 0;
  uint64_t bytes_ = 0;  // absolute offset of the next byte to write
  WriteFaultPlan fault_plan_;
};

}  // namespace dsig

#endif  // DSIG_CORE_UPDATE_LOG_H_
