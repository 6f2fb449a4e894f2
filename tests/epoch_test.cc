// Direct tests of the update-isolation gate (core/epoch.h): the lock rules
// that update_chaos_test's randomized toggling and storm runs rest on.
//
// The "waits" checks give a blocked thread time to get in and assert it did
// not. A thread that could get in but is slow only makes such a check pass
// when it should fail; it never makes a correct gate fail.
#include "core/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include "core/signature_builder.h"
#include "tests/test_util.h"

namespace dsig {
namespace {

constexpr auto kSettle = std::chrono::milliseconds(50);

// A thread that enters `Scope` (ReadSnapshot or UpdateGuard) on a gate,
// records that it got in, and leaves at once.
template <typename Scope>
class Contender {
 public:
  explicit Contender(EpochGate* gate)
      : thread_([this, gate] {
          const Scope scope(gate);
          entered_.store(true);
        }) {}
  ~Contender() { Join(); }
  Contender(const Contender&) = delete;
  Contender& operator=(const Contender&) = delete;

  bool entered() const { return entered_.load(); }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> entered_{false};
  std::thread thread_;
};

TEST(EpochGateTest, NestedSnapshotsReenterAndOutermostReleaseAdmitsWriter) {
  EpochGate gate;
  std::optional<ReadSnapshot> outer;
  outer.emplace(&gate);
  Contender<UpdateGuard> writer(&gate);
  std::this_thread::sleep_for(kSettle);
  {
    // Re-entry takes no second shared lock, so it cannot queue behind the
    // waiting writer.
    const ReadSnapshot inner(&gate);
    const ReadSnapshot innermost(&gate);
  }
  std::this_thread::sleep_for(kSettle);
  EXPECT_FALSE(writer.entered()) << "releasing a nested snapshot let the "
                                    "writer in while the outer one is held";
  outer.reset();
  writer.Join();
  EXPECT_TRUE(writer.entered());
}

TEST(EpochGateTest, SnapshotInsideTheGuardDoesNotSelfDeadlock) {
  EpochGate gate;
  {
    const UpdateGuard guard(&gate);
    const ReadSnapshot snapshot(&gate);
    const ReadSnapshot nested(&gate);
  }
  // Leaving the guard released the lock and this thread's hold on the gate:
  // a snapshot here and a writer elsewhere both get in.
  { const ReadSnapshot after(&gate); }
  Contender<UpdateGuard> writer(&gate);
  writer.Join();
  EXPECT_TRUE(writer.entered());
}

TEST(EpochGateTest, ReadersShareTheGate) {
  EpochGate gate;
  const ReadSnapshot held(&gate);
  Contender<ReadSnapshot> reader(&gate);
  reader.Join();
  EXPECT_TRUE(reader.entered());
}

TEST(EpochGateTest, WriterWaitsForAnActiveReader) {
  EpochGate gate;
  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    const ReadSnapshot snapshot(&gate);
    holding.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!holding.load()) std::this_thread::yield();
  Contender<UpdateGuard> writer(&gate);
  std::this_thread::sleep_for(kSettle);
  EXPECT_FALSE(writer.entered()) << "a writer got in beside an active reader";
  release.store(true);
  reader.join();
  writer.Join();
  EXPECT_TRUE(writer.entered());
}

TEST(EpochGateTest, ReaderWaitsForAnActiveWriter) {
  EpochGate gate;
  std::optional<UpdateGuard> guard;
  guard.emplace(&gate);
  Contender<ReadSnapshot> reader(&gate);
  std::this_thread::sleep_for(kSettle);
  EXPECT_FALSE(reader.entered()) << "a reader got in beside an active writer";
  guard.reset();
  reader.Join();
  EXPECT_TRUE(reader.entered());
}

TEST(EpochGateTest, UpdaterReadsItsOwnRewrittenRowsInsideTheGuard) {
  const RoadNetwork graph = testing_util::MakeSevenNodeNetwork();
  const auto index =
      BuildSignatureIndex(graph, {0, 6}, {.t = 4, .c = 2, .compress = false});
  // Nodes 2 and 3 both have degree 2 and host no object, so either's row is
  // a valid row for the other.
  const SignatureRow replacement = testing_util::StagedRow(*index, 2);
  ASSERT_NE(testing_util::StagedRow(*index, 3), replacement);
  {
    const UpdateGuard guard(index->epoch_gate());
    index->ReplaceRow(3, replacement);
    EXPECT_EQ(testing_util::StagedRow(*index, 3), replacement);
  }
  EXPECT_EQ(testing_util::StagedRow(*index, 3), replacement);
}

TEST(EpochGateDeathTest, UpdateGuardMustNotNestOrSitInsideASnapshot) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EpochGate gate;
  EXPECT_DEATH(
      {
        const ReadSnapshot snapshot(&gate);
        const UpdateGuard guard(&gate);
      },
      "inside a ReadSnapshot");
  EXPECT_DEATH(
      {
        const UpdateGuard outer(&gate);
        const UpdateGuard inner(&gate);
      },
      "nested update");
}

}  // namespace
}  // namespace dsig
