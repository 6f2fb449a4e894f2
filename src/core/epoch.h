// Reader/writer isolation for the live-update protocol (§5.4 made
// concurrency-safe).
//
// The updater rewrites signature rows, object-table entries and the
// network's adjacency in place. EpochGate is the one mechanism that makes
// that safe to serve: a shared_mutex that every query holds shared for its
// whole run and the single updater holds exclusively for a whole update. No
// query overlaps an update, so a query sees either the complete pre-update
// index or the complete post-update index, never a mix.
//
//  - ReadSnapshot (RAII): the outermost snapshot on a thread takes the shared
//    lock. Nested snapshots (ReadRowStaged inside a kNN loop inside a batch
//    driver) only bump a thread-local depth, and a snapshot taken by the
//    thread that holds the write guard is a no-op that reads the writer's own
//    rows — so the update path can reuse the ordinary read paths without
//    self-deadlock.
//
//  - UpdateGuard (RAII): exclusive writer scope. Must not be nested, and must
//    not be taken inside a ReadSnapshot on the same gate (either would
//    self-deadlock, so both fail a DSIG_CHECK instead).
#ifndef DSIG_CORE_EPOCH_H_
#define DSIG_CORE_EPOCH_H_

#include <shared_mutex>

namespace dsig {

class EpochGate {
 public:
  EpochGate() = default;
  EpochGate(const EpochGate&) = delete;
  EpochGate& operator=(const EpochGate&) = delete;

 private:
  friend class ReadSnapshot;
  friend class UpdateGuard;

  std::shared_mutex mu_;
};

// RAII read scope; see the file comment. The outermost snapshot costs one
// shared-lock acquire; nested ones cost a thread-local scan of the (tiny)
// set of gates this thread currently holds.
class ReadSnapshot {
 public:
  explicit ReadSnapshot(EpochGate* gate);
  ~ReadSnapshot();
  ReadSnapshot(const ReadSnapshot&) = delete;
  ReadSnapshot& operator=(const ReadSnapshot&) = delete;

 private:
  EpochGate* gate_;
};

// RAII exclusive writer scope; see the file comment.
class UpdateGuard {
 public:
  explicit UpdateGuard(EpochGate* gate);
  ~UpdateGuard();
  UpdateGuard(const UpdateGuard&) = delete;
  UpdateGuard& operator=(const UpdateGuard&) = delete;

 private:
  EpochGate* gate_;
};

}  // namespace dsig

#endif  // DSIG_CORE_EPOCH_H_
