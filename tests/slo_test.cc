#include "obs/slo.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace dsig {
namespace obs {
namespace {

constexpr uint64_t kSec = 1000ull * 1000 * 1000;

SloWindows TestWindows() {
  SloWindows w;
  w.fast_ns = 5 * kSec;
  w.slow_ns = 30 * kSec;
  w.slot_ns = kSec;
  return w;
}

std::vector<SloObjective> TestObjectives() {
  return {
      {"knn", 10.0, 0.99},     // 10 ms budget, 99% availability
      {"update", 50.0, 0.999},
  };
}

class SloEngineTest : public ::testing::Test {
 protected:
  SloEngineTest() : engine_(TestObjectives(), TestWindows()) {}
  SloEngine engine_;
};

TEST_F(SloEngineTest, ClassIndexResolvesDeclaredClassesOnly) {
  EXPECT_EQ(engine_.ClassIndex("knn"), 0);
  EXPECT_EQ(engine_.ClassIndex("update"), 1);
  EXPECT_EQ(engine_.ClassIndex("range"), -1);
  EXPECT_EQ(engine_.ClassIndex(""), -1);
  EXPECT_EQ(engine_.num_classes(), 2u);
}

TEST_F(SloEngineTest, RecordReturnsTheBreachVerdict) {
  const uint64_t now = 100 * kSec;
  // In budget and ok: no breach.
  EXPECT_FALSE(engine_.RecordAt(0, 5.0, /*ok=*/true, /*executed=*/true, now));
  // Over budget: breach even though the request succeeded.
  EXPECT_TRUE(engine_.RecordAt(0, 50.0, true, true, now));
  // Failed: breach even though it was fast.
  EXPECT_TRUE(engine_.RecordAt(0, 1.0, false, false, now));
  // Out-of-range class indexes are ignored, never crash.
  EXPECT_FALSE(engine_.RecordAt(-1, 1.0, false, false, now));
  EXPECT_FALSE(engine_.RecordAt(99, 1.0, false, false, now));
}

TEST_F(SloEngineTest, AllGoodTrafficIsOk) {
  const uint64_t base = 1000 * kSec;
  for (int s = 0; s < 30; ++s) {
    for (int i = 0; i < 10; ++i) {
      engine_.RecordAt(0, 2.0, true, true, base + s * kSec);
    }
  }
  const SloClassHealth health = engine_.HealthAt(0, base + 30 * kSec);
  EXPECT_EQ(health.state, SloState::kOk);
  EXPECT_EQ(health.fast_bad, 0u);
  EXPECT_DOUBLE_EQ(health.fast_burn, 0.0);
  EXPECT_DOUBLE_EQ(health.slow_burn, 0.0);
  EXPECT_GT(health.window_count, 0u);
  EXPECT_GT(health.window_p99_ms, 0.0);
}

TEST_F(SloEngineTest, SustainedBadTrafficGoesCritical) {
  // 50% bad on a 99% objective: burn = 0.5 / 0.01 = 50 >> 14.4, sustained
  // across both windows.
  const uint64_t base = 2000 * kSec;
  for (int s = 0; s < 30; ++s) {
    for (int i = 0; i < 10; ++i) {
      const bool ok = i % 2 == 0;
      engine_.RecordAt(0, 2.0, ok, ok, base + s * kSec);
    }
  }
  const SloClassHealth health = engine_.HealthAt(0, base + 30 * kSec);
  EXPECT_EQ(health.state, SloState::kCritical);
  EXPECT_GE(health.fast_burn, 14.4);
  EXPECT_GE(health.slow_burn, 14.4);
}

TEST_F(SloEngineTest, FastWindowSpikeAloneIsNotCritical) {
  // A burst of errors confined to the last 3 seconds of a 30-second run:
  // the fast window burns hot but the slow window stays under threshold, so
  // the multi-window rule holds fire.
  const uint64_t base = 3000 * kSec;
  for (int s = 0; s < 27; ++s) {
    for (int i = 0; i < 100; ++i) {
      engine_.RecordAt(0, 2.0, true, true, base + s * kSec);
    }
  }
  for (int s = 27; s < 30; ++s) {
    for (int i = 0; i < 10; ++i) {
      engine_.RecordAt(0, 2.0, false, false, base + s * kSec);
    }
  }
  const SloClassHealth health = engine_.HealthAt(0, base + 30 * kSec);
  EXPECT_GE(health.fast_burn, 14.4);
  EXPECT_LT(health.slow_burn, 14.4);
  EXPECT_NE(health.state, SloState::kCritical);
}

TEST_F(SloEngineTest, CriticalRecoversOnceBadTrafficAgesOut) {
  const uint64_t base = 4000 * kSec;
  // Overload: everything bad for 30 s -> critical.
  for (int s = 0; s < 30; ++s) {
    engine_.RecordAt(0, 100.0, false, true, base + s * kSec);
  }
  EXPECT_EQ(engine_.HealthAt(0, base + 30 * kSec).state, SloState::kCritical);

  // Recovery: good traffic only. The fast window forgets in 5 s, dropping
  // the state out of critical; once the slow window forgets too, burn is 0.
  const uint64_t recovery = base + 30 * kSec;
  for (int s = 0; s < 10; ++s) {
    engine_.RecordAt(0, 2.0, true, true, recovery + s * kSec);
  }
  const SloClassHealth after_fast =
      engine_.HealthAt(0, recovery + 10 * kSec);
  EXPECT_NE(after_fast.state, SloState::kCritical);

  const SloClassHealth after_slow =
      engine_.HealthAt(0, recovery + 40 * kSec);
  EXPECT_EQ(after_slow.state, SloState::kOk);
  EXPECT_DOUBLE_EQ(after_slow.fast_burn, 0.0);
}

TEST_F(SloEngineTest, ShedRequestsBurnBudgetButNotLatency) {
  const uint64_t base = 5000 * kSec;
  engine_.RecordAt(0, 5.0, true, true, base);
  // Shed: ok=false, executed=false — counts against availability, stays out
  // of the latency window.
  engine_.RecordAt(0, 0.01, false, false, base);
  const SloClassHealth health = engine_.HealthAt(0, base + kSec);
  EXPECT_EQ(health.fast_total, 2u);
  EXPECT_EQ(health.fast_bad, 1u);
  EXPECT_EQ(health.window_count, 1u);  // only the executed request
  EXPECT_EQ(health.lifetime_count, 1u);
}

TEST_F(SloEngineTest, OverallIsTheWorstClassState) {
  std::vector<SloClassHealth> classes(2);
  classes[0].state = SloState::kOk;
  classes[1].state = SloState::kWarning;
  EXPECT_EQ(SloEngine::Overall(classes), SloState::kWarning);
  classes[0].state = SloState::kCritical;
  EXPECT_EQ(SloEngine::Overall(classes), SloState::kCritical);
  EXPECT_EQ(SloEngine::Overall({}), SloState::kOk);
}

TEST_F(SloEngineTest, ReportJsonCarriesTheHealthReport) {
  const uint64_t base = 6000 * kSec;
  engine_.RecordAt(0, 2.0, true, true, base);
  const std::string json = engine_.ReportJsonAt(base + kSec);
  EXPECT_NE(json.find("\"overall\""), std::string::npos);
  EXPECT_NE(json.find("\"classes\""), std::string::npos);
  EXPECT_NE(json.find("\"knn\""), std::string::npos);
  EXPECT_NE(json.find("\"update\""), std::string::npos);
  EXPECT_NE(json.find("\"fast_burn\""), std::string::npos);
  EXPECT_NE(json.find("\"state\""), std::string::npos);
  EXPECT_NE(json.find("\"window_p99_ms\""), std::string::npos);
}

TEST(SloStateTest, NamesAreStable) {
  EXPECT_STREQ(SloStateName(SloState::kOk), "ok");
  EXPECT_STREQ(SloStateName(SloState::kWarning), "warning");
  EXPECT_STREQ(SloStateName(SloState::kCritical), "critical");
}

}  // namespace
}  // namespace obs
}  // namespace dsig
