// Tenant isolation: the RETRY_AFTER pressure curve, deficit-weighted
// round-robin fairness, per-tenant token buckets, wire-tenant folding,
// single-flight coalescing, and the adversarial-tenant chaos test proving a
// 10x flooder cannot push a compliant tenant past its SLO.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/signature_builder.h"
#include "graph/graph_generator.h"
#include "io/durable_index.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/coalesce.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "workload/dataset_generator.h"

namespace dsig {
namespace serve {
namespace {

// --- RETRY_AFTER pressure curve ---------------------------------------------

TEST(RetryAfterHintTest, FullPressureCurve) {
  const double base = 25;
  // Empty queue sheds (the slot is busy) at exactly base: the server can
  // absorb a retry as soon as the slot frees.
  EXPECT_DOUBLE_EQ(RetryAfterHintMs(base, 0, 10), base);
  // The hint scales linearly with fill...
  EXPECT_DOUBLE_EQ(RetryAfterHintMs(base, 5, 10), 1.5 * base);
  EXPECT_DOUBLE_EQ(RetryAfterHintMs(base, 10, 10), 2.0 * base);
  // ...and clamps rather than extrapolating past a transiently overfull
  // queue.
  EXPECT_DOUBLE_EQ(RetryAfterHintMs(base, 25, 10), 2.0 * base);
  // A zero-capacity queue is permanently full: worst-case hint, not the
  // old collapse to plain base.
  EXPECT_DOUBLE_EQ(RetryAfterHintMs(base, 0, 0), 2.0 * base);
  EXPECT_DOUBLE_EQ(RetryAfterHintMs(base, 7, 0), 2.0 * base);
  // Monotonic: more pressure never hints a sooner retry.
  double prev = 0;
  for (size_t queued = 0; queued <= 16; ++queued) {
    const double hint = RetryAfterHintMs(base, queued, 16);
    EXPECT_GE(hint, prev) << "hint regressed at queued=" << queued;
    prev = hint;
  }
}

// --- DWRR fairness ----------------------------------------------------------

// Helper: park `count` waiters for `tenant`, each recording its tenant into
// `order` (mutex-guarded) the moment it is granted, releasing immediately.
struct GrantRecorder {
  std::mutex mu;
  std::vector<uint32_t> order;
  void Record(uint32_t tenant) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(tenant);
  }
};

TEST(TenantAdmissionTest, FairnessAcrossTenantsUnderBacklog) {
  // One execution slot; the "flood" tenant has 4 waiters parked before the
  // "good" tenant's single request arrives. FIFO would serve good 5th; DWRR
  // must serve it within the first two grants.
  AdmissionController::Options options;
  options.query = {/*max_inflight=*/1, /*max_queue=*/8};
  options.tenants = {{"flood", 1.0, 0, 0}, {"good", 1.0, 0, 0}};
  AdmissionController admission(options);

  auto holder = admission.Admit(WorkClass::kQuery, 0, Deadline::Infinite());
  ASSERT_EQ(holder.outcome, AdmitOutcome::kAdmitted);

  GrantRecorder recorder;
  std::vector<std::thread> waiters;
  for (int i = 0; i < 4; ++i) {
    waiters.emplace_back([&] {
      auto r = admission.Admit(WorkClass::kQuery, 0, Deadline::Infinite());
      if (r.outcome == AdmitOutcome::kAdmitted) recorder.Record(0);
    });
  }
  while (admission.queue_depth(WorkClass::kQuery, 0) < 4) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  waiters.emplace_back([&] {
    auto r = admission.Admit(WorkClass::kQuery, 1, Deadline::Infinite());
    if (r.outcome == AdmitOutcome::kAdmitted) recorder.Record(1);
  });
  while (admission.queue_depth(WorkClass::kQuery, 1) < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  holder.ticket.Release();
  for (std::thread& w : waiters) w.join();

  ASSERT_EQ(recorder.order.size(), 5u);
  const auto good_at = std::find(recorder.order.begin(), recorder.order.end(),
                                 1u) -
                       recorder.order.begin();
  EXPECT_LE(good_at, 1) << "good tenant served behind the flood backlog";
}

TEST(TenantAdmissionTest, WeightsSetLongRunSlotShares) {
  // Weight 3 vs weight 1 with both queues saturated: per DWRR cycle tenant B
  // drains 3 requests to tenant A's 1, so the first 8 grants split 2/6.
  AdmissionController::Options options;
  options.query = {/*max_inflight=*/1, /*max_queue=*/16};
  options.tenants = {{"a", 1.0, 0, 0}, {"b", 3.0, 0, 0}};
  AdmissionController admission(options);

  auto holder = admission.Admit(WorkClass::kQuery, 0, Deadline::Infinite());
  ASSERT_EQ(holder.outcome, AdmitOutcome::kAdmitted);

  GrantRecorder recorder;
  std::vector<std::thread> waiters;
  for (uint32_t tenant = 0; tenant < 2; ++tenant) {
    for (int i = 0; i < 6; ++i) {
      waiters.emplace_back([&, tenant] {
        auto r =
            admission.Admit(WorkClass::kQuery, tenant, Deadline::Infinite());
        if (r.outcome == AdmitOutcome::kAdmitted) recorder.Record(tenant);
      });
    }
  }
  while (admission.queue_depth(WorkClass::kQuery) < 12) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  holder.ticket.Release();
  for (std::thread& w : waiters) w.join();

  ASSERT_EQ(recorder.order.size(), 12u);
  const auto first8_b =
      std::count(recorder.order.begin(), recorder.order.begin() + 8, 1u);
  EXPECT_GE(first8_b, 5) << "weight-3 tenant did not get ~3x the early slots";
  EXPECT_LE(first8_b, 7) << "weight-1 tenant starved outright";
}

// --- Token buckets ----------------------------------------------------------

TEST(TenantAdmissionTest, TokenBucketShedsBeyondBurst) {
  AdmissionController::Options options;
  options.query = {/*max_inflight=*/8, /*max_queue=*/8};
  options.tenants = {{"default", 1.0, 0, 0},
                     {"limited", 1.0, /*rate_qps=*/5, /*burst=*/2}};
  AdmissionController admission(options);

  // The burst admits; the request past it sheds from the bucket with a
  // positive "when your next token lands" hint — before ever queueing.
  auto a = admission.Admit(WorkClass::kQuery, 1, Deadline::Infinite());
  auto b = admission.Admit(WorkClass::kQuery, 1, Deadline::Infinite());
  EXPECT_EQ(a.outcome, AdmitOutcome::kAdmitted);
  EXPECT_EQ(b.outcome, AdmitOutcome::kAdmitted);
  auto third = admission.Admit(WorkClass::kQuery, 1, Deadline::Infinite());
  EXPECT_EQ(third.outcome, AdmitOutcome::kShed);
  EXPECT_TRUE(third.rate_limited);
  EXPECT_GT(third.retry_after_ms, 0);
  EXPECT_EQ(admission.queue_depth(WorkClass::kQuery, 1), 0u);

  // The unlimited tenant is untouched by its neighbor's bucket.
  auto other = admission.Admit(WorkClass::kQuery, 0, Deadline::Infinite());
  EXPECT_EQ(other.outcome, AdmitOutcome::kAdmitted);
  EXPECT_FALSE(other.rate_limited);
}

// --- Wire-tenant folding ----------------------------------------------------

TEST(TenantAdmissionTest, UnknownTenantIdsFoldIntoDefault) {
  AdmissionController::Options options;
  options.tenants = {{"default", 1.0, 0, 0}, {"other", 1.0, 0, 0}};
  AdmissionController admission(options);
  EXPECT_EQ(admission.num_tenants(), 2u);
  EXPECT_EQ(admission.ResolveTenant(0), 0u);
  EXPECT_EQ(admission.ResolveTenant(1), 1u);
  // A hostile or misconfigured client cannot mint per-tenant state.
  EXPECT_EQ(admission.ResolveTenant(2), 0u);
  EXPECT_EQ(admission.ResolveTenant(0xffffffffu), 0u);
  auto r = admission.Admit(WorkClass::kQuery, 999, Deadline::Infinite());
  EXPECT_EQ(r.outcome, AdmitOutcome::kAdmitted);
  EXPECT_EQ(r.tenant, 0u);
  EXPECT_EQ(admission.TenantName(999), "default");
}

// --- Single-flight (unit) ---------------------------------------------------

TEST(SingleFlightTest, CoalesceKeyIgnoresIdentityFields) {
  Request a;
  a.type = RequestType::kKnn;
  a.node = 17;
  a.k = 5;
  a.knn_type = 1;
  Request b = a;
  b.id = 99;
  b.trace_id = 0xbeef;
  b.deadline_ms = 123;
  b.tenant_id = 4;
  EXPECT_EQ(CoalesceKey(a), CoalesceKey(b));
  Request c = a;
  c.node = 18;
  EXPECT_NE(CoalesceKey(a), CoalesceKey(c));

  EXPECT_TRUE(Coalescible(a));
  Request update;
  update.type = RequestType::kUpdate;
  EXPECT_FALSE(Coalescible(update));
  Request ping;
  ping.type = RequestType::kPing;
  EXPECT_FALSE(Coalescible(ping));
}

TEST(SingleFlightTest, FollowersShareTheLeadersAnswer) {
  SingleFlight flights;
  auto lead = flights.Join("k", Deadline::Infinite());
  ASSERT_TRUE(lead.leader);
  EXPECT_EQ(flights.OpenFlights(), 1u);

  std::atomic<int> ready_count{0};
  std::vector<std::thread> followers;
  for (int i = 0; i < 3; ++i) {
    followers.emplace_back([&] {
      auto f = flights.Join("k", Deadline::AfterMillis(5000));
      if (!f.leader && f.ready && f.response.update_seq == 42) {
        ready_count.fetch_add(1);
      }
    });
  }
  // Give the followers a moment to park, then publish.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Response answer;
  answer.status = ResponseStatus::kOk;
  answer.update_seq = 42;
  flights.Publish("k", answer);
  for (std::thread& f : followers) f.join();
  EXPECT_EQ(ready_count.load(), 3);
  EXPECT_EQ(flights.OpenFlights(), 0u);
}

TEST(SingleFlightTest, AbandonWakesFollowersEmptyHanded) {
  SingleFlight flights;
  auto lead = flights.Join("k", Deadline::Infinite());
  ASSERT_TRUE(lead.leader);
  std::atomic<bool> follower_ready{true};
  std::thread follower([&] {
    auto f = flights.Join("k", Deadline::AfterMillis(5000));
    follower_ready.store(!f.leader && f.ready);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  flights.Abandon("k");
  follower.join();
  EXPECT_FALSE(follower_ready.load());
  EXPECT_EQ(flights.OpenFlights(), 0u);
}

TEST(SingleFlightTest, FollowerDeadlineIsNotExtendedByTheLeader) {
  SingleFlight flights;
  auto lead = flights.Join("k", Deadline::Infinite());
  ASSERT_TRUE(lead.leader);
  const uint64_t before = Deadline::NowNanos();
  auto f = flights.Join("k", Deadline::AfterMillis(40));
  EXPECT_FALSE(f.leader);
  EXPECT_FALSE(f.ready);
  const double waited_ms =
      static_cast<double>(Deadline::NowNanos() - before) / 1e6;
  EXPECT_GE(waited_ms, 30.0);
  EXPECT_LT(waited_ms, 2000.0);
  flights.Abandon("k");
}

TEST(SingleFlightTest, LeaderGuardAbandonsOnEarlyExit) {
  SingleFlight flights;
  auto lead = flights.Join("k", Deadline::Infinite());
  ASSERT_TRUE(lead.leader);
  { LeaderGuard guard(&flights, "k"); }  // leader dies without publishing
  EXPECT_EQ(flights.OpenFlights(), 0u);
  // The next arrival starts a fresh flight instead of parking forever.
  EXPECT_TRUE(flights.Join("k", Deadline::Infinite()).leader);
  flights.Abandon("k");
}

// --- Live server: coalescing + isolation ------------------------------------

std::string TempDir(const std::string& name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

class TenantServerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = std::make_unique<RoadNetwork>(
        MakeRandomPlanar({.num_nodes = 500, .seed = 21}));
    objects_ = UniformDataset(*graph_, 0.05, 21);
    index_ = BuildSignatureIndex(*graph_, objects_,
                                 {.t = 5, .c = 2, .keep_forest = true});
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = TempDir(std::string("serve_tenant_") + info->name() + "_" +
                   std::to_string(static_cast<unsigned>(::getpid())));
    auto updater =
        DurableUpdater::Initialize(dir_, graph_.get(), index_.get(), {});
    ASSERT_TRUE(updater.ok()) << updater.status().ToString();
    updater_ = std::move(updater).value();
  }

  void StartServer(const ServerOptions& options) {
    DsigServer::Deployment deployment;
    deployment.graph = graph_.get();
    deployment.index = index_.get();
    deployment.updater = updater_.get();
    auto server = DsigServer::Start(deployment, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
  }

  std::unique_ptr<RoadNetwork> graph_;
  std::vector<NodeId> objects_;
  std::unique_ptr<SignatureIndex> index_;
  std::string dir_;
  std::unique_ptr<DurableUpdater> updater_;
  std::unique_ptr<DsigServer> server_;
};

TEST_F(TenantServerFixture, IdenticalConcurrentQueriesExecuteOnce) {
  ServerOptions options;
  // The leader holds its flight open long enough for the followers to pile
  // on deterministically.
  options.coalesce_hold_for_test_ms = 500;
  StartServer(options);

  auto& registry = obs::MetricsRegistry::Global();
  const uint64_t leaders0 =
      registry.GetCounter("serve.coalesce.leaders")->Value();
  const uint64_t followers0 =
      registry.GetCounter("serve.coalesce.followers")->Value();
  const uint64_t admitted0 =
      registry.GetCounter("serve.query.admitted")->Value();

  constexpr int kClients = 4;
  std::mutex mu;
  std::vector<Response> answers;
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      // Stagger: client 0 opens the flight, the rest join mid-hold.
      std::this_thread::sleep_for(std::chrono::milliseconds(i == 0 ? 0 : 100));
      ServeClient client;
      if (!client.Connect(server_->port(), 10000).ok()) return;
      Request knn;
      knn.type = RequestType::kKnn;
      knn.id = 1000 + static_cast<uint64_t>(i);
      knn.node = 17;
      knn.k = 5;
      knn.knn_type = 1;
      auto response = client.Call(knn);
      if (response.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        answers.push_back(*response);
      }
    });
  }
  for (std::thread& c : clients) c.join();

  ASSERT_EQ(answers.size(), static_cast<size_t>(kClients));
  // One leader executed, everyone else followed; the query loop ran once.
  EXPECT_EQ(registry.GetCounter("serve.coalesce.leaders")->Value() - leaders0,
            1u);
  EXPECT_EQ(
      registry.GetCounter("serve.coalesce.followers")->Value() - followers0,
      static_cast<uint64_t>(kClients - 1));
  EXPECT_EQ(registry.GetCounter("serve.query.admitted")->Value() - admitted0,
            1u);
  // All answers are bit-identical and each carries its own request id.
  std::vector<uint64_t> seen_ids;
  for (const Response& r : answers) {
    EXPECT_EQ(r.status, ResponseStatus::kOk);
    EXPECT_EQ(r.objects, answers[0].objects);
    ASSERT_EQ(r.distances.size(), answers[0].distances.size());
    for (size_t i = 0; i < r.distances.size(); ++i) {
      EXPECT_EQ(r.distances[i], answers[0].distances[i]) << "distance " << i;
    }
    seen_ids.push_back(r.id);
  }
  std::sort(seen_ids.begin(), seen_ids.end());
  EXPECT_EQ(std::unique(seen_ids.begin(), seen_ids.end()), seen_ids.end())
      << "followers did not get their own ids re-stamped";
}

TEST_F(TenantServerFixture, TenantIdsResolveToTheirTenantOrTheDefault) {
  ServerOptions options;
  options.admission.tenants = {{"default", 1.0, 0, 0}, {"other", 1.0, 0, 0}};
  StartServer(options);
  ServeClient client;
  ASSERT_TRUE(client.Connect(server_->port(), 5000).ok());

  // A request that leaves tenant_id at 0 lands on the default tenant, and
  // the response echoes it.
  Request knn;
  knn.type = RequestType::kKnn;
  knn.id = 7;
  knn.node = 17;
  knn.k = 3;
  knn.knn_type = 1;
  auto response = client.Call(knn);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, ResponseStatus::kOk);
  EXPECT_EQ(response->tenant_id, 0u);

  // A known tenant is echoed; an unknown one folds to the default.
  knn.id = 8;
  knn.tenant_id = 1;
  response = client.Call(knn);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->tenant_id, 1u);
  knn.id = 9;
  knn.tenant_id = 0xdeadbeef;
  response = client.Call(knn);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->tenant_id, 0u);
}

TEST_F(TenantServerFixture, FloodingTenantCannotBreakCompliantTenantsSlo) {
  // The headline isolation property: an adversarial tenant at 10x the
  // compliant tenant's rate is shed (RETRY_AFTER) at its token bucket and
  // its own queue, while the compliant tenant keeps completing within its
  // latency objective.
  ServerOptions options;
  options.admission.query = {/*max_inflight=*/2, /*max_queue=*/8};
  options.admission.tenants = {
      {"compliant", /*weight=*/1.0, /*rate_qps=*/0, /*burst=*/0},
      {"flood", /*weight=*/1.0, /*rate_qps=*/100, /*burst=*/20}};
  options.tenant_slo = {{"tenant_compliant", /*latency_budget_ms=*/150, 0.99},
                        {"tenant_flood", 150, 0.50}};
  StartServer(options);

  LoadgenOptions load;
  load.port = server_->port();
  load.duration_s = 2.0;
  load.threads = 2;
  load.update_fraction = 0;   // pure query traffic
  load.join_fraction = 0;     // keep individual queries cheap and uniform
  load.deadline_ms = 250;
  load.max_retries = 1;
  load.seed = 11;
  load.tenants = {{"compliant", 0, /*rate=*/40},
                  {"flood", 1, /*rate=*/400}};  // 10x the compliant rate
  auto report = RunLoadgen(load);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->tenants.size(), 2u);
  const TenantLoadReport* compliant = nullptr;
  const TenantLoadReport* flood = nullptr;
  for (const auto& t : report->tenants) {
    if (t.name == "compliant") compliant = &t;
    if (t.name == "flood") flood = &t;
  }
  ASSERT_NE(compliant, nullptr);
  ASSERT_NE(flood, nullptr);

  // The flooder was shed, hard: its bucket admits 100 qps of its 400.
  EXPECT_GT(flood->shed, flood->arrivals / 4)
      << FormatLoadgenSummary(*report);
  // The compliant tenant rode through: nearly everything completed, nothing
  // was shed, and its p99 stayed inside the 150 ms objective.
  EXPECT_GT(compliant->arrivals, 0u);
  EXPECT_GE(static_cast<double>(compliant->completed),
            0.95 * static_cast<double>(compliant->arrivals))
      << FormatLoadgenSummary(*report);
  EXPECT_LT(compliant->shed, compliant->arrivals / 20 + 1);
  EXPECT_LT(compliant->p99_ms, 150.0) << FormatLoadgenSummary(*report);

  // The server's own per-tenant ledger agrees: TENANT_HEALTH lines exist
  // for both tenants and the compliant one is not in breach.
  ServeClient client;
  ASSERT_TRUE(client.Connect(server_->port(), 5000).ok());
  Request slo;
  slo.type = RequestType::kSlo;
  slo.id = 1;
  auto health = client.Call(slo);
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_NE(health->text.find("TENANT_HEALTH class=tenant_compliant"),
            std::string::npos)
      << health->text;
  EXPECT_NE(health->text.find("TENANT_HEALTH class=tenant_flood"),
            std::string::npos);
  EXPECT_NE(health->text.find("TENANT_HEALTH class=tenant_compliant state=ok"),
            std::string::npos)
      << health->text;
}

TEST_F(TenantServerFixture, PerTenantMetricsAndStatsAreExported) {
  ServerOptions options;
  options.admission.tenants = {{"default", 1.0, 0, 0}, {"gold", 2.0, 0, 0}};
  StartServer(options);
  ServeClient client;
  ASSERT_TRUE(client.Connect(server_->port(), 5000).ok());
  for (int i = 0; i < 5; ++i) {
    Request knn;
    knn.type = RequestType::kKnn;
    knn.id = 100 + static_cast<uint64_t>(i);
    knn.node = 17;
    knn.k = 3;
    knn.knn_type = 1;
    knn.tenant_id = 1;
    auto response = client.Call(knn);
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->status, ResponseStatus::kOk);
  }

  auto& registry = obs::MetricsRegistry::Global();
  EXPECT_GE(registry.GetCounter("serve.tenant.gold.admitted")->Value(), 5u);

  Request stats;
  stats.type = RequestType::kStats;
  stats.id = 1;
  auto stat = client.Call(stats);
  ASSERT_TRUE(stat.ok());
  EXPECT_NE(stat->text.find("\"tenant_slo\""), std::string::npos)
      << stat->text;
  EXPECT_NE(stat->text.find("tenant_gold"), std::string::npos) << stat->text;
}

}  // namespace
}  // namespace serve
}  // namespace dsig
