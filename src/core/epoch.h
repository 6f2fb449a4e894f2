// Epoch-based snapshot isolation for the live-update protocol (§5.4 made
// concurrency-safe).
//
// The moving parts:
//
//  - EpochGate: a shared_mutex plus a monotonically increasing epoch counter
//    and a fixed array of per-reader pin slots. Queries enter shared, the
//    single updater enters exclusive; the epoch only advances when an update
//    commits, so an epoch names one immutable generation of the index.
//
//  - ReadSnapshot (RAII): pins the current epoch for the duration of a query.
//    The outermost snapshot on a thread takes the shared lock and claims a
//    pin slot; nested snapshots (ReadRowStaged inside a kNN loop inside a
//    batch driver) are free no-ops reusing the outer pin, and a snapshot
//    taken by the thread that holds the write guard is also a no-op that
//    reads the writer's own in-progress generation — so the update path can
//    reuse the ordinary read paths without self-deadlock.
//
//  - UpdateGuard (RAII): exclusive writer scope. Rewritten rows are published
//    into the VersionedRowStore at epoch current+1 while the guard is held;
//    the destructor advances the epoch with a release store, making every row
//    of the update visible to new readers atomically — a query observes all
//    of an update's rewrites or none of them.
//
// The shared lock gives per-query atomicity (queries also walk the adjacency
// lists and weights of the shared RoadNetwork, which are not versioned); the
// epoch pins are what make row publication and reclamation safe: a retired
// row version is freed only once every pinned epoch has advanced past it, so
// even a reader outside the gate could never chase a freed row.
#ifndef DSIG_CORE_EPOCH_H_
#define DSIG_CORE_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <shared_mutex>

namespace dsig {

class EpochGate {
 public:
  // Upper bound on simultaneously pinned outermost snapshots; slots are
  // claimed by thread-id hash with linear probing. 128 comfortably exceeds
  // any RunBatch worker count; if every slot is somehow taken the snapshot
  // still proceeds safely under the shared lock alone (see ReadSnapshot).
  static constexpr int kPinSlots = 128;

  EpochGate() = default;
  EpochGate(const EpochGate&) = delete;
  EpochGate& operator=(const EpochGate&) = delete;

  // The current published generation. Starts at 1; row versions stamped 0
  // (the built index) are visible to every reader.
  uint64_t current_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  // The oldest epoch any active reader still pins (current_epoch() when no
  // reader is active). Row versions retired at or before this are
  // unreachable and may be freed.
  uint64_t MinPinnedEpoch() const;

  // True when the calling thread is inside an UpdateGuard on this gate.
  bool ThisThreadHoldsWrite() const;

 private:
  friend class ReadSnapshot;
  friend class UpdateGuard;

  struct alignas(64) PinSlot {
    std::atomic<uint64_t> epoch{0};  // 0 = free
  };

  std::shared_mutex mu_;
  std::atomic<uint64_t> epoch_{1};
  PinSlot pins_[kPinSlots];
};

// RAII read scope; see the file comment. Cheap: the outermost snapshot costs
// one shared-lock acquire plus one CAS; nested ones cost a thread-local scan
// of the (tiny) set of gates this thread currently holds.
class ReadSnapshot {
 public:
  explicit ReadSnapshot(EpochGate* gate);
  ~ReadSnapshot();
  ReadSnapshot(const ReadSnapshot&) = delete;
  ReadSnapshot& operator=(const ReadSnapshot&) = delete;

  // The generation this snapshot reads. ~0 inside the write guard (the
  // writer always sees its own freshest rows).
  uint64_t epoch() const { return epoch_; }

 private:
  EpochGate* gate_;
  uint64_t epoch_ = 0;
  int slot_ = -1;            // claimed pin slot, -1 when none
  bool outermost_ = false;   // this snapshot owns the shared lock
};

// RAII exclusive writer scope; see the file comment. Must not be nested.
class UpdateGuard {
 public:
  explicit UpdateGuard(EpochGate* gate);
  ~UpdateGuard();
  UpdateGuard(const UpdateGuard&) = delete;
  UpdateGuard& operator=(const UpdateGuard&) = delete;

  // The epoch this update's row rewrites publish at; becomes the current
  // epoch when the guard is released.
  uint64_t publish_epoch() const { return publish_epoch_; }

 private:
  EpochGate* gate_;
  uint64_t publish_epoch_;
};

}  // namespace dsig

#endif  // DSIG_CORE_EPOCH_H_
