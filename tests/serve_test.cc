// The serving front-end: wire protocol round-trips and hostile bytes,
// admission control, and a live loopback server exercising deadlines,
// degradation, updates, and graceful shutdown end to end.
#include "serve/server.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>

#include "core/hub_labels.h"
#include "core/signature_builder.h"
#include "graph/graph_generator.h"
#include "io/durable_index.h"
#include "query/join_query.h"
#include "query/knn_query.h"
#include "query/range_query.h"
#include "serve/loadgen.h"
#include "workload/dataset_generator.h"

namespace dsig {
namespace serve {
namespace {

// --- Protocol ---------------------------------------------------------------

TEST(ProtocolTest, RequestRoundTrip) {
  Request request;
  request.type = RequestType::kKnn;
  request.id = 0x1122334455667788ull;
  request.deadline_ms = 12.5;
  request.node = 42;
  request.k = 7;
  request.knn_type = 2;
  request.epsilon = 99.25;
  request.update_op = 1;
  request.a = 3;
  request.b = 9;
  request.weight = 2.75;
  request.tenant_id = 5;

  std::vector<uint8_t> frame;
  EncodeRequest(request, &frame);
  ASSERT_GE(frame.size(), kFrameHeaderBytes);
  uint32_t payload_len = 0;
  ASSERT_TRUE(CheckFrameHeader(frame.data(), &payload_len).ok());
  ASSERT_EQ(payload_len, frame.size() - kFrameHeaderBytes);

  auto decoded = DecodeRequest(frame.data() + kFrameHeaderBytes, payload_len);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, request.type);
  EXPECT_EQ(decoded->id, request.id);
  EXPECT_DOUBLE_EQ(decoded->deadline_ms, request.deadline_ms);
  EXPECT_EQ(decoded->node, request.node);
  EXPECT_EQ(decoded->k, request.k);
  EXPECT_EQ(decoded->knn_type, request.knn_type);
  EXPECT_DOUBLE_EQ(decoded->epsilon, request.epsilon);
  EXPECT_EQ(decoded->a, request.a);
  EXPECT_EQ(decoded->b, request.b);
  EXPECT_DOUBLE_EQ(decoded->weight, request.weight);
  EXPECT_EQ(decoded->tenant_id, request.tenant_id);
}

TEST(ProtocolTest, ResponseRoundTrip) {
  Response response;
  response.id = 77;
  response.status = ResponseStatus::kDeadlineExceeded;
  response.degradation = Degradation::kOverload;
  response.retry_after_ms = 12.5;
  response.objects = {1, 2, 3};
  response.distances = {0.5, 1.5, 2.5};
  response.pair_left = {4, 5};
  response.pair_right = {6, 7};
  response.update_seq = 31;
  response.rows_rewritten = 9;
  response.num_nodes = 1000;
  response.num_objects = 50;
  response.suggested_epsilon = 123.5;
  response.text = "hello {json}";

  std::vector<uint8_t> frame;
  EncodeResponse(response, &frame);
  uint32_t payload_len = 0;
  ASSERT_TRUE(CheckFrameHeader(frame.data(), &payload_len).ok());
  auto decoded = DecodeResponse(frame.data() + kFrameHeaderBytes, payload_len);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->id, response.id);
  EXPECT_EQ(decoded->status, response.status);
  EXPECT_EQ(decoded->degradation, response.degradation);
  EXPECT_EQ(decoded->objects, response.objects);
  EXPECT_EQ(decoded->distances, response.distances);
  EXPECT_EQ(decoded->pair_left, response.pair_left);
  EXPECT_EQ(decoded->pair_right, response.pair_right);
  EXPECT_EQ(decoded->update_seq, response.update_seq);
  EXPECT_EQ(decoded->rows_rewritten, response.rows_rewritten);
  EXPECT_EQ(decoded->num_nodes, response.num_nodes);
  EXPECT_EQ(decoded->num_objects, response.num_objects);
  EXPECT_DOUBLE_EQ(decoded->suggested_epsilon, response.suggested_epsilon);
  EXPECT_EQ(decoded->text, response.text);
}

TEST(ProtocolTest, HostileBytesFailCleanly) {
  // Wrong magic.
  uint8_t bad_header[kFrameHeaderBytes] = {0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0};
  uint32_t payload_len = 0;
  EXPECT_FALSE(CheckFrameHeader(bad_header, &payload_len).ok());

  // Oversized length.
  Request ping;
  std::vector<uint8_t> frame;
  EncodeRequest(ping, &frame);
  frame[4] = 0xff;
  frame[5] = 0xff;
  frame[6] = 0xff;
  frame[7] = 0x7f;
  EXPECT_FALSE(CheckFrameHeader(frame.data(), &payload_len).ok());

  // One fixed layout: every truncation of a valid payload, and the payload
  // with one byte too many, must decode to an error, not a crash or a
  // silently short request.
  frame.clear();
  Request full;
  full.type = RequestType::kUpdate;
  full.a = 1;
  full.b = 2;
  full.weight = 1.5;
  full.trace_id = 0xabcdef01;
  full.tenant_id = 7;
  EncodeRequest(full, &frame);
  ASSERT_TRUE(CheckFrameHeader(frame.data(), &payload_len).ok());
  std::vector<uint8_t> payload(frame.begin() + kFrameHeaderBytes, frame.end());
  ASSERT_TRUE(DecodeRequest(payload.data(), payload.size()).ok());
  for (uint32_t cut = 0; cut < payload_len; ++cut) {
    // An exact-size copy, so a sanitizer sees any read past the cut.
    const std::vector<uint8_t> head(payload.begin(), payload.begin() + cut);
    EXPECT_EQ(DecodeRequest(head.data(), cut).status().code(),
              StatusCode::kCorruption)
        << "truncation at " << cut << " decoded";
  }
  payload.push_back(0);
  EXPECT_EQ(DecodeRequest(payload.data(), payload.size()).status().code(),
            StatusCode::kCorruption)
      << "a trailing byte decoded";
  payload.pop_back();
  // Garbage request type.
  payload[0] = 0xee;
  EXPECT_FALSE(DecodeRequest(payload.data(), payload.size()).ok());
}

TEST(ProtocolTest, ResponseTailTruncationFuzz) {
  // One fixed layout: every truncation of a response that carries every
  // field, and the response with one byte too many, is corruption.
  Response response;
  response.id = 31;
  response.status = ResponseStatus::kOk;
  response.objects = {1, 2};
  response.distances = {0.5, 1.5};
  response.text = "t";
  response.trace_id = 0xfeedull;
  response.tenant_id = 3;

  std::vector<uint8_t> frame;
  EncodeResponse(response, &frame);
  uint32_t payload_len = 0;
  ASSERT_TRUE(CheckFrameHeader(frame.data(), &payload_len).ok());
  std::vector<uint8_t> payload(frame.begin() + kFrameHeaderBytes, frame.end());
  const auto decoded = DecodeResponse(payload.data(), payload.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->trace_id, response.trace_id);
  EXPECT_EQ(decoded->tenant_id, response.tenant_id);
  for (uint32_t cut = 0; cut < payload_len; ++cut) {
    const std::vector<uint8_t> head(payload.begin(), payload.begin() + cut);
    EXPECT_EQ(DecodeResponse(head.data(), cut).status().code(),
              StatusCode::kCorruption)
        << "truncation at " << cut << " decoded";
  }
  payload.push_back(0);
  EXPECT_EQ(DecodeResponse(payload.data(), payload.size()).status().code(),
            StatusCode::kCorruption)
      << "a trailing byte decoded";
  payload.pop_back();

  // A hostile object count must fail the size pre-check, not allocate. The
  // 4-byte count follows id (8), status (1), degradation (1) and
  // retry_after_ms (8).
  const size_t count_at = 18;
  ASSERT_EQ(payload[count_at], response.objects.size());
  std::vector<uint8_t> hostile = payload;
  hostile[count_at + 0] = 0xff;
  hostile[count_at + 1] = 0xff;
  hostile[count_at + 2] = 0xff;
  hostile[count_at + 3] = 0x7f;
  EXPECT_FALSE(DecodeResponse(hostile.data(), hostile.size()).ok());

  // Every field is fixed-width except the four counted ones, so an empty
  // response is the layout's fixed part: 86 bytes.
  std::vector<uint8_t> empty;
  EncodeResponse(Response{}, &empty);
  EXPECT_EQ(empty.size(), kFrameHeaderBytes + 86);
}

// --- Admission --------------------------------------------------------------

TEST(AdmissionTest, FullQueueShedsWithScaledHint) {
  AdmissionController::Options options;
  options.query = {/*max_inflight=*/1, /*max_queue=*/0};
  options.retry_after_base_ms = 10;
  AdmissionController admission(options);

  auto first = admission.Admit(WorkClass::kQuery, Deadline::Infinite());
  ASSERT_EQ(first.outcome, AdmitOutcome::kAdmitted);
  ASSERT_TRUE(first.ticket.held());

  // Slot taken, zero queue: instant shed with a positive hint.
  auto second = admission.Admit(WorkClass::kQuery, Deadline::Infinite());
  EXPECT_EQ(second.outcome, AdmitOutcome::kShed);
  EXPECT_GE(second.retry_after_ms, options.retry_after_base_ms);

  first.ticket.Release();
  auto third = admission.Admit(WorkClass::kQuery, Deadline::Infinite());
  EXPECT_EQ(third.outcome, AdmitOutcome::kAdmitted);
}

TEST(AdmissionTest, QueuedRequestTimesOutAtItsDeadline) {
  AdmissionController::Options options;
  options.query = {/*max_inflight=*/1, /*max_queue=*/4};
  AdmissionController admission(options);
  auto holder = admission.Admit(WorkClass::kQuery, Deadline::Infinite());
  ASSERT_EQ(holder.outcome, AdmitOutcome::kAdmitted);

  const uint64_t before = Deadline::NowNanos();
  auto queued = admission.Admit(WorkClass::kQuery, Deadline::AfterMillis(30));
  EXPECT_EQ(queued.outcome, AdmitOutcome::kQueueTimeout);
  EXPECT_GE(Deadline::NowNanos() - before, 25ull * 1000 * 1000);
  EXPECT_EQ(admission.queue_depth(WorkClass::kQuery), 0u);
}

TEST(AdmissionTest, UpdateClassIsIndependentOfQueryClass) {
  AdmissionController::Options options;
  options.query = {/*max_inflight=*/1, /*max_queue=*/0};
  AdmissionController admission(options);
  auto query = admission.Admit(WorkClass::kQuery, Deadline::Infinite());
  ASSERT_EQ(query.outcome, AdmitOutcome::kAdmitted);
  // Query class saturated; updates still flow.
  auto update = admission.Admit(WorkClass::kUpdate, Deadline::Infinite());
  EXPECT_EQ(update.outcome, AdmitOutcome::kAdmitted);
}

TEST(AdmissionTest, CloseWakesQueuedWaitersWithShuttingDown) {
  AdmissionController::Options options;
  options.query = {/*max_inflight=*/1, /*max_queue=*/4};
  AdmissionController admission(options);
  auto holder = admission.Admit(WorkClass::kQuery, Deadline::Infinite());
  ASSERT_EQ(holder.outcome, AdmitOutcome::kAdmitted);

  AdmitOutcome waiter_outcome = AdmitOutcome::kAdmitted;
  std::thread waiter([&] {
    waiter_outcome =
        admission.Admit(WorkClass::kQuery, Deadline::Infinite()).outcome;
  });
  while (admission.queue_depth(WorkClass::kQuery) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  admission.Close();
  waiter.join();
  EXPECT_EQ(waiter_outcome, AdmitOutcome::kShuttingDown);
  EXPECT_EQ(admission.Admit(WorkClass::kQuery, Deadline::Infinite()).outcome,
            AdmitOutcome::kShuttingDown);
}

// --- Live server ------------------------------------------------------------

std::string TempDir(const std::string& name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

class ServerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = std::make_unique<RoadNetwork>(
        MakeRandomPlanar({.num_nodes = 500, .seed = 21}));
    objects_ = UniformDataset(*graph_, 0.05, 21);
    index_ = BuildSignatureIndex(*graph_, objects_,
                                 {.t = 5, .c = 2, .keep_forest = true});
    // Per-test directory: ctest runs each ServerFixture case as its own
    // process in parallel, and a shared dir makes SetUp race with itself.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = TempDir(std::string("serve_fixture_") + info->name() + "_" +
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
    ASSERT_TRUE(client_.Connect(server_->port(), /*timeout_ms=*/5000).ok());
  }

  Response MustCall(const Request& request) {
    auto response = client_.Call(request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? *response : Response{};
  }

  std::unique_ptr<RoadNetwork> graph_;
  std::vector<NodeId> objects_;
  std::unique_ptr<SignatureIndex> index_;
  std::string dir_;
  std::unique_ptr<DurableUpdater> updater_;
  std::unique_ptr<DsigServer> server_;
  ServeClient client_;
};

TEST_F(ServerFixture, AnswersMatchDirectQueries) {
  StartServer({});

  Request ping;
  ping.type = RequestType::kPing;
  ping.id = 1;
  const Response pong = MustCall(ping);
  EXPECT_EQ(pong.status, ResponseStatus::kOk);
  EXPECT_EQ(pong.num_nodes, graph_->num_nodes());
  EXPECT_EQ(pong.num_objects, index_->num_objects());
  EXPECT_GT(pong.suggested_epsilon, 0);

  Request knn;
  knn.type = RequestType::kKnn;
  knn.id = 2;
  knn.node = 17;
  knn.k = 5;
  knn.knn_type = 1;
  const Response served = MustCall(knn);
  EXPECT_EQ(served.status, ResponseStatus::kOk);
  EXPECT_EQ(served.degradation, Degradation::kNone);
  const KnnResult direct =
      SignatureKnnQuery(*index_, 17, 5, KnnResultType::kType1);
  ASSERT_EQ(served.objects.size(), direct.objects.size());
  for (size_t i = 0; i < direct.objects.size(); ++i) {
    EXPECT_DOUBLE_EQ(served.distances[i], direct.distances[i]);
  }

  Request range;
  range.type = RequestType::kRange;
  range.id = 3;
  range.node = 17;
  range.epsilon = pong.suggested_epsilon;
  const Response ranged = MustCall(range);
  EXPECT_EQ(ranged.status, ResponseStatus::kOk);
  const RangeQueryResult direct_range =
      SignatureRangeQuery(*index_, 17, range.epsilon);
  EXPECT_EQ(ranged.objects, direct_range.objects);

  Request stats;
  stats.type = RequestType::kStats;
  stats.id = 4;
  const Response stat = MustCall(stats);
  EXPECT_EQ(stat.status, ResponseStatus::kOk);
  EXPECT_NE(stat.text.find("serve.requests"), std::string::npos);
}

TEST_F(ServerFixture, UpdatesAreDurablyAckedWithWalSeq) {
  StartServer({});
  Request update;
  update.type = RequestType::kUpdate;
  update.id = 9;
  update.update_op = UpdateRecord::kAddEdge;
  update.a = 3;
  update.b = 250;
  update.weight = 2.5;
  const Response first = MustCall(update);
  EXPECT_EQ(first.status, ResponseStatus::kOk);
  EXPECT_EQ(first.update_seq, 1u);
  EXPECT_GT(first.rows_rewritten, 0u);

  update.id = 10;
  update.a = 5;
  update.b = 300;
  const Response second = MustCall(update);
  EXPECT_EQ(second.update_seq, 2u);

  // A malformed update (self-loop) is refused without poisoning the WAL.
  update.id = 11;
  update.a = 7;
  update.b = 7;
  const Response refused = MustCall(update);
  EXPECT_EQ(refused.status, ResponseStatus::kError);
  EXPECT_EQ(updater_->next_seq(), 3u);
}

// kStats reports the label tier as it is when asked: an acknowledged update
// trips the stale latch after startup, and the next report shows it.
TEST_F(ServerFixture, StatsReportLabelsStaleAfterAnAckedUpdate) {
  index_->set_hub_labels(HubLabels::Build(*graph_, {}, nullptr));
  const Weight new_weight = graph_->edge_weight(0) + 1;
  StartServer({});
  Request stats;
  stats.type = RequestType::kStats;
  stats.id = 1;
  const Response fresh = MustCall(stats);
  EXPECT_NE(fresh.text.find("\"labels.stale\": 0"), std::string::npos)
      << fresh.text;

  Request update;
  update.type = RequestType::kUpdate;
  update.id = 2;
  update.update_op = UpdateRecord::kSetEdgeWeight;
  update.a = 0;
  update.weight = new_weight;
  ASSERT_EQ(MustCall(update).status, ResponseStatus::kOk);
  ASSERT_TRUE(index_->hub_labels()->stale());

  stats.id = 3;
  const Response after = MustCall(stats);
  EXPECT_NE(after.text.find("\"labels.stale\": 1"), std::string::npos)
      << after.text;
}

// An AddEdge past the backtracking link's width is refused like any other
// malformed update: an error answer, nothing logged, and the server keeps
// serving.
TEST_F(ServerFixture, AddEdgePastTheLinkWidthIsRefusedAndServingGoesOn) {
  StartServer({});
  NodeId x = 0;
  while (index_->object_at(x) != kInvalidObject) ++x;
  const size_t link_slots = size_t{1} << index_->codec().link_bits();
  Request update;
  update.type = RequestType::kUpdate;
  update.update_op = UpdateRecord::kAddEdge;
  update.a = x;
  update.weight = 0.5;
  // Fill x's adjacency list with shortcuts to non-object nodes.
  for (NodeId v = 0; graph_->degree(x) < link_slots; ++v) {
    if (v == x || index_->object_at(v) != kInvalidObject) continue;
    ++update.id;
    update.b = v;
    ASSERT_EQ(MustCall(update).status, ResponseStatus::kOk) << "edge to " << v;
  }
  const uint64_t next_seq = updater_->next_seq();

  // Half a unit to an object x is not joined to would be that object's next
  // hop from x, at a slot the link cannot address.
  NodeId target = kInvalidNode;
  for (const NodeId o : objects_) {
    if (graph_->FindEdge(x, o) == kInvalidEdge) {
      target = o;
      break;
    }
  }
  ASSERT_NE(target, kInvalidNode);
  ++update.id;
  update.b = target;
  const Response refused = MustCall(update);
  EXPECT_EQ(refused.status, ResponseStatus::kError);
  EXPECT_EQ(updater_->next_seq(), next_seq);
  EXPECT_EQ(graph_->degree(x), link_slots);

  Request knn;
  knn.type = RequestType::kKnn;
  knn.id = ++update.id;
  knn.node = x;
  knn.k = 5;
  knn.knn_type = 1;
  const Response served = MustCall(knn);
  EXPECT_EQ(served.status, ResponseStatus::kOk);
  EXPECT_EQ(served.objects.size(), 5u);
}

TEST_F(ServerFixture, ExpiredDeadlineAnswersWithoutExecuting) {
  StartServer({});
  Request knn;
  knn.type = RequestType::kKnn;
  knn.id = 5;
  knn.node = 17;
  knn.k = 5;
  knn.knn_type = 1;
  knn.deadline_ms = 1e-9;  // expired before the server can look at it
  const Response response = MustCall(knn);
  EXPECT_EQ(response.status, ResponseStatus::kDeadlineExceeded);
  EXPECT_TRUE(response.objects.empty());
}

TEST_F(ServerFixture, OverloadDegradesToCategoryAnswers) {
  ServerOptions options;
  options.degrade_queue_fraction = -1;  // brown-out hook: degrade everything
  StartServer(options);

  Request knn;
  knn.type = RequestType::kKnn;
  knn.id = 6;
  knn.node = 17;
  knn.k = 5;
  knn.knn_type = 1;
  const Response response = MustCall(knn);
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(response.degradation, Degradation::kOverload);
  EXPECT_EQ(response.objects.size(), 5u);
  // Each served answer is the category-only mode of the query code.
  const KnnResult direct = SignatureKnnQuery(*index_, 17, 5,
                                             KnnResultType::kType1,
                                             /*refine=*/false);
  EXPECT_EQ(response.objects, direct.objects);
  EXPECT_EQ(response.distances, direct.distances);

  Request range;
  range.type = RequestType::kRange;
  range.id = 7;
  range.node = 17;
  range.epsilon = 50;
  const Response ranged = MustCall(range);
  EXPECT_EQ(ranged.status, ResponseStatus::kOk);
  EXPECT_EQ(ranged.degradation, Degradation::kOverload);
  EXPECT_EQ(ranged.objects,
            SignatureRangeQuery(*index_, 17, 50, /*refine=*/false).objects);

  Request join;
  join.type = RequestType::kJoin;
  join.id = 8;
  join.node = 17;
  join.epsilon = 30;
  const Response joined = MustCall(join);
  EXPECT_EQ(joined.status, ResponseStatus::kOk);
  EXPECT_EQ(joined.degradation, Degradation::kOverload);
  const JoinResult direct_join =
      SignatureEpsilonJoin(*index_, *index_, 17, 30, /*refine=*/false);
  EXPECT_FALSE(direct_join.pairs.empty());
  ASSERT_EQ(joined.pair_left.size(), direct_join.pairs.size());
  ASSERT_EQ(joined.pair_right.size(), direct_join.pairs.size());
  for (size_t i = 0; i < direct_join.pairs.size(); ++i) {
    EXPECT_EQ(joined.pair_left[i], direct_join.pairs[i].left);
    EXPECT_EQ(joined.pair_right[i], direct_join.pairs[i].right);
  }
}

TEST_F(ServerFixture, DecodeFaultTagsTheResponse) {
  StartServer({});
  const NodeId n = 23;
  // Smash node 23's row to zeros: reads must fall back to bounded Dijkstra
  // (still exact) and the response must say so.
  EncodedRow& row = index_->mutable_encoded_row(n);
  std::fill(row.bytes.begin(), row.bytes.end(), uint8_t{0});

  Request knn;
  knn.type = RequestType::kKnn;
  knn.id = 8;
  knn.node = n;
  knn.k = 3;
  knn.knn_type = 1;
  const Response response = MustCall(knn);
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(response.degradation, Degradation::kDecodeFault);
  EXPECT_EQ(response.objects.size(), 3u);
}

TEST_F(ServerFixture, ShedRepliesRetryAfterUnderSaturation) {
  ServerOptions options;
  options.admission.query = {/*max_inflight=*/1, /*max_queue=*/0};
  StartServer(options);

  // Keep the single slot saturated from two other connections hammering the
  // most expensive request we have, then observe the shed on the fixture
  // connection.
  std::atomic<bool> stop{false};
  std::vector<std::thread> blockers;
  for (int t = 0; t < 2; ++t) {
    blockers.emplace_back([&, t] {
      ServeClient heavy;
      if (!heavy.Connect(server_->port(), 5000).ok()) return;
      Request join;
      join.type = RequestType::kJoin;
      join.id = 100 + static_cast<uint64_t>(t);
      join.node = 3;
      join.epsilon = 1e9;  // every pair straddles
      while (!stop.load(std::memory_order_relaxed)) {
        if (!heavy.Call(join).ok()) break;
      }
    });
  }

  bool saw_shed = false;
  for (int i = 0; i < 2000 && !saw_shed; ++i) {
    Request knn;
    knn.type = RequestType::kKnn;
    knn.id = 200;
    knn.node = 17;
    knn.k = 3;
    knn.knn_type = 3;
    auto response = client_.Call(knn);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (response->status == ResponseStatus::kRetryAfter) {
      EXPECT_GT(response->retry_after_ms, 0);
      saw_shed = true;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& b : blockers) b.join();
  EXPECT_TRUE(saw_shed) << "single-slot server never shed";
}

TEST_F(ServerFixture, GracefulStopDrainsAndRefuses) {
  StartServer({});
  Request ping;
  ping.type = RequestType::kPing;
  ping.id = 12;
  EXPECT_EQ(MustCall(ping).status, ResponseStatus::kOk);

  server_->Stop();
  // The listener is gone: new connections are refused.
  ServeClient late;
  EXPECT_FALSE(late.Connect(server_->port(), 500).ok());
  // Stop() is idempotent.
  server_->Stop();

  // The durable tail survives the drain: a final checkpoint + recovery
  // round-trips.
  ASSERT_TRUE(updater_->Checkpoint().ok());
  ASSERT_TRUE(updater_->Close().ok());
  auto recovered = DurableUpdater::Recover(dir_, {});
  EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
}

TEST_F(ServerFixture, TraceIdIsEchoedOrMinted) {
  StartServer({});
  Request knn;
  knn.type = RequestType::kKnn;
  knn.id = 40;
  knn.node = 17;
  knn.k = 3;
  knn.knn_type = 1;
  knn.trace_id = 0xc0ffee01ull;
  const Response echoed = MustCall(knn);
  EXPECT_EQ(echoed.status, ResponseStatus::kOk);
  EXPECT_EQ(echoed.trace_id, knn.trace_id);

  // A request without a trace id (trace_id 0) gets a server-minted id so it
  // is still traceable in the slow-query log.
  knn.id = 41;
  knn.trace_id = 0;
  const Response minted = MustCall(knn);
  EXPECT_NE(minted.trace_id, 0u);
}

TEST_F(ServerFixture, SloEndpointReportsHealthAndStats) {
  StartServer({});
  // Put some traffic through so the windows have samples.
  for (int i = 0; i < 20; ++i) {
    Request knn;
    knn.type = RequestType::kKnn;
    knn.id = 50 + static_cast<uint64_t>(i);
    knn.node = 17;
    knn.k = 3;
    knn.knn_type = 1;
    ASSERT_EQ(MustCall(knn).status, ResponseStatus::kOk);
  }

  Request slo;
  slo.type = RequestType::kSlo;
  slo.id = 90;
  const Response health = MustCall(slo);
  EXPECT_EQ(health.status, ResponseStatus::kOk);
  EXPECT_NE(health.text.find("SLO_HEALTH class=knn"), std::string::npos)
      << health.text;
  EXPECT_NE(health.text.find("SLO_OVERALL state="), std::string::npos);

  Request stats;
  stats.type = RequestType::kStats;
  stats.id = 91;
  const Response stat = MustCall(stats);
  EXPECT_NE(stat.text.find("\"metrics\""), std::string::npos);
  EXPECT_NE(stat.text.find("\"slo\""), std::string::npos);
  EXPECT_NE(stat.text.find("\"overall\""), std::string::npos);
}

TEST_F(ServerFixture, BreachingRequestsLandInTheSlowQueryLog) {
  ServerOptions options;
  // A zero-latency budget makes every executed request an SLO breach, so
  // the tail sampler fires deterministically.
  options.slo = {{"knn", 0.0, 0.99},
                 {"range", 0.0, 0.99},
                 {"join", 0.0, 0.99},
                 {"update", 0.0, 0.999}};
  std::FILE* log = std::tmpfile();
  ASSERT_NE(log, nullptr);
  options.slow_trace_sink = log;
  StartServer(options);

  Request knn;
  knn.type = RequestType::kKnn;
  knn.id = 60;
  knn.node = 17;
  knn.k = 3;
  knn.knn_type = 1;
  knn.trace_id = 0xabc123ull;
  ASSERT_EQ(MustCall(knn).status, ResponseStatus::kOk);

  std::fflush(log);
  std::fseek(log, 0, SEEK_END);
  const long size = std::ftell(log);
  ASSERT_GT(size, 0) << "no slow-query trace emitted";
  std::string line(static_cast<size_t>(size), '\0');
  std::rewind(log);
  line.resize(std::fread(line.data(), 1, line.size(), log));
  EXPECT_NE(line.find("\"trace_id\": \"0000000000abc123\""),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"class\": \"knn\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"queue_wait_ms\""), std::string::npos) << line;
  // The first request on a fresh server is always phase-sampled.
  EXPECT_NE(line.find("\"sampled_phases\": true"), std::string::npos) << line;
  EXPECT_NE(line.find("\"phases_ms\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"slo_budget_ms\""), std::string::npos) << line;

  server_->Stop();
  server_.reset();  // the sink must outlive the server
  std::fclose(log);
}

TEST_F(ServerFixture, LoadgenDrivesTrafficEndToEnd) {
  StartServer({});
  LoadgenOptions options;
  options.port = server_->port();
  options.rate = 400;
  options.duration_s = 1.0;
  options.threads = 2;
  options.deadline_ms = 200;
  options.seed = 5;
  auto report = RunLoadgen(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->arrivals, 0u);
  EXPECT_GT(report->completed, 0u);
  EXPECT_EQ(report->protocol_errors, 0u);
  EXPECT_GT(report->updates_acked, 0u);
  // Every acked seq was really committed: the WAL is at least that far.
  EXPECT_GT(report->max_acked_seq, 0u);
  EXPECT_LE(report->max_acked_seq, updater_->next_seq() - 1);
  EXPECT_GT(report->p99_ms, 0);
  const std::string summary = FormatLoadgenSummary(*report);
  EXPECT_NE(summary.find("LOADGEN_SUMMARY"), std::string::npos);
  EXPECT_NE(summary.find("protocol_errors=0"), std::string::npos);
}

}  // namespace
}  // namespace serve
}  // namespace dsig
