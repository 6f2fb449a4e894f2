#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

#include "core/hub_labels.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/op_counters.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "query/join_query.h"
#include "query/knn_query.h"
#include "query/range_query.h"
#include "serve/net.h"
#include "util/deadline.h"
#include "util/hexid.h"
#include "util/logging.h"

namespace dsig {
namespace serve {
namespace {

struct ServeMetrics {
  obs::Counter* requests;
  obs::Counter* ok;
  obs::Counter* retry_after;
  obs::Counter* deadline_exceeded;
  obs::Counter* shutting_down;
  obs::Counter* errors;
  obs::Counter* protocol_errors;
  obs::Counter* degraded;
  obs::Counter* connections;
  obs::Histogram* latency_ms;
};

const ServeMetrics& Metrics() {
  static const ServeMetrics m = {
      obs::MetricsRegistry::Global().GetCounter("serve.requests"),
      obs::MetricsRegistry::Global().GetCounter("serve.ok"),
      obs::MetricsRegistry::Global().GetCounter("serve.retry_after"),
      obs::MetricsRegistry::Global().GetCounter("serve.deadline_exceeded"),
      obs::MetricsRegistry::Global().GetCounter("serve.shutting_down"),
      obs::MetricsRegistry::Global().GetCounter("serve.errors"),
      obs::MetricsRegistry::Global().GetCounter("serve.protocol_errors"),
      obs::MetricsRegistry::Global().GetCounter("serve.degraded"),
      obs::MetricsRegistry::Global().GetCounter("serve.connections"),
      obs::MetricsRegistry::Global().GetHistogram("serve.latency_ms"),
  };
  return m;
}

// Hostile-client counters: slow peers tripping frame deadlines, writes that
// never drain, idle reaps, and accept-loop backpressure episodes.
struct NetHardeningMetrics {
  obs::Counter* read_timeouts;
  obs::Counter* write_timeouts;
  obs::Counter* idle_timeouts;
  obs::Counter* accept_waits;
};

const NetHardeningMetrics& NetMetrics() {
  static const NetHardeningMetrics m = {
      obs::MetricsRegistry::Global().GetCounter("serve.net.read_timeouts"),
      obs::MetricsRegistry::Global().GetCounter("serve.net.write_timeouts"),
      obs::MetricsRegistry::Global().GetCounter("serve.net.idle_timeouts"),
      obs::MetricsRegistry::Global().GetCounter("serve.net.accept_waits"),
  };
  return m;
}

Response ErrorResponse(uint64_t id, std::string message) {
  Response response;
  response.id = id;
  response.status = ResponseStatus::kError;
  response.text = std::move(message);
  return response;
}

// Server-minted trace ids for clients that sent none: splitmix64 over a
// time-seeded counter, | 1 so 0 keeps meaning "absent".
uint64_t MintTraceId() {
  static std::atomic<uint64_t> counter{obs::MonotonicNanos()};
  uint64_t x = counter.fetch_add(0x9e3779b97f4a7c15ull,
                                 std::memory_order_relaxed);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x | 1;
}

// SLOs installed when ServerOptions.slo is empty: the interactive query
// classes get tight budgets, the join scan and durable updates looser ones.
std::vector<obs::SloObjective> DefaultObjectives() {
  return {
      {"knn", 50, 0.99},
      {"range", 50, 0.99},
      {"join", 250, 0.99},
      {"update", 100, 0.999},
  };
}

// The window FillObservability summarizes over (matches the registry's
// middle export window).
constexpr uint64_t kServeWindowNs = 60ull * 1000 * 1000 * 1000;

// How long Stop() waits for in-flight requests before closing their
// connections anyway.
constexpr double kDrainTimeoutMs = 5000;

}  // namespace

DsigServer::DsigServer(const Deployment& deployment,
                       const ServerOptions& options)
    : deployment_(deployment),
      options_(options),
      admission_(options.admission),
      slo_(std::make_unique<obs::SloEngine>(
          options.slo.empty() ? DefaultObjectives() : options.slo,
          options.slo_windows)),
      window_latency_ms_(obs::MetricsRegistry::Global().GetWindowedHistogram(
          "serve.latency_ms")),
      window_queued_ms_(obs::MetricsRegistry::Global().GetWindowedHistogram(
          "serve.queued_ms")) {
  // Per-tenant health: one SLO class per configured tenant, indexed by
  // tenant id. Names come from the bounded admission config, so the
  // cardinality here is fixed at startup.
  std::vector<obs::SloObjective> tenant_objectives = options.tenant_slo;
  if (tenant_objectives.empty()) {
    for (uint32_t t = 0; t < admission_.num_tenants(); ++t) {
      tenant_objectives.push_back(
          {"tenant_" + admission_.TenantName(t), 100, 0.99});
    }
  }
  tenant_slo_ = std::make_unique<obs::SloEngine>(std::move(tenant_objectives),
                                                 options.slo_windows);
}

StatusOr<std::unique_ptr<DsigServer>> DsigServer::Start(
    const Deployment& deployment, const ServerOptions& options) {
  if (deployment.graph == nullptr || deployment.index == nullptr) {
    return Status::InvalidArgument("Start: deployment needs graph and index");
  }
  // Announce the optional exact-distance label tier once and seed the
  // labels.* gauges so the very first kStats report is self-describing even
  // if no exact-distance query has run yet.
  const HubLabels* labels = deployment.index->hub_labels();
  PublishHubLabelMetrics(labels);
  if (labels != nullptr && labels->ready()) {
    const HubLabelStats ls = labels->stats();
    DSIG_LOG(Info) << "hub-label tier attached: " << ls.entries
                   << " entries, avg " << ls.avg_label_entries
                   << "/node, " << (ls.bytes / 1024) << " KB"
                   << (labels->stale() ? " (stale, demoted)" : "");
  } else {
    DSIG_LOG(Info) << "no hub-label tier: exact distances use "
                      "link-chase/Dijkstra only";
  }
  std::unique_ptr<DsigServer> server(new DsigServer(deployment, options));

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError("socket: " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("bind: " + err);
  }
  if (::listen(fd, 128) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("listen: " + err);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("getsockname: " + err);
  }

  server->listen_fd_ = fd;
  server->port_ = ntohs(bound.sin_port);
  server->accept_thread_ = std::thread([raw = server.get()] {
    raw->AcceptLoop();
  });
  return server;
}

DsigServer::~DsigServer() { Stop(); }

void DsigServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Stop() shut the listener down (or something unrecoverable happened
      // to it); either way this thread is done.
      return;
    }
    Metrics().connections->Add(1);
    std::unique_lock<std::mutex> lock(connections_mu_);
    if (options_.max_connections > 0 &&
        connection_fds_.size() >= options_.max_connections) {
      // Backpressure, not rejection: hold the accepted socket un-serviced
      // until a slot frees. Further clients stack up in the listen backlog
      // behind it, which is exactly the signal a flooding client deserves.
      NetMetrics().accept_waits->Add(1);
      connections_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_relaxed) ||
               connection_fds_.size() < options_.max_connections;
      });
    }
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      return;
    }
    connection_fds_.push_back(fd);
    connection_threads_.emplace_back([this, fd] { ConnectionLoop(fd); });
  }
}

void DsigServer::ConnectionLoop(int fd) {
  std::vector<uint8_t> payload;
  std::vector<uint8_t> out;
  for (;;) {
    uint8_t header[kFrameHeaderBytes];
    // Idle wait: a persistent connection may sit arbitrarily long between
    // frames (bounded only by idle_timeout_ms), so the first byte gets its
    // own read with the idle budget.
    const NetIoResult first = RecvAll(fd, header, 1, options_.idle_timeout_ms);
    if (!first.ok) {
      if (first.timed_out) {
        NetMetrics().idle_timeouts->Add(1);
      } else if (!first.clean_eof) {
        Metrics().protocol_errors->Add(1);
      }
      break;
    }
    // Slowloris defense: once a frame has started, the rest of the header
    // and the payload must land within the per-frame read budget — a peer
    // dribbling one byte per timeout cannot hold this thread forever.
    const NetIoResult rest =
        RecvAll(fd, header + 1, sizeof(header) - 1, options_.read_timeout_ms);
    if (!rest.ok) {
      if (rest.timed_out) NetMetrics().read_timeouts->Add(1);
      Metrics().protocol_errors->Add(1);
      break;
    }
    uint32_t payload_len = 0;
    const Status header_status = CheckFrameHeader(header, &payload_len);
    if (!header_status.ok()) {
      // The stream is desynchronized; there is no way to resync a
      // length-prefixed protocol, so answer once and hang up.
      Metrics().protocol_errors->Add(1);
      out.clear();
      EncodeResponse(ErrorResponse(0, header_status.ToString()), &out);
      SendAll(fd, out.data(), out.size(), options_.write_timeout_ms);
      break;
    }
    payload.resize(payload_len);
    if (payload_len > 0) {
      const NetIoResult body =
          RecvAll(fd, payload.data(), payload_len, options_.read_timeout_ms);
      if (!body.ok) {
        if (body.timed_out) NetMetrics().read_timeouts->Add(1);
        Metrics().protocol_errors->Add(1);
        break;
      }
    }
    StatusOr<Request> request = DecodeRequest(payload.data(), payload_len);
    if (!request.ok()) {
      Metrics().protocol_errors->Add(1);
      out.clear();
      EncodeResponse(ErrorResponse(0, request.status().ToString()), &out);
      SendAll(fd, out.data(), out.size(), options_.write_timeout_ms);
      break;
    }

    const Response response = Handle(*request);
    out.clear();
    EncodeResponse(response, &out);
    const NetIoResult sent =
        SendAll(fd, out.data(), out.size(), options_.write_timeout_ms);
    if (!sent.ok) {
      // A peer that will not drain its receive buffer is holding this
      // thread hostage; cut it loose.
      if (sent.timed_out) NetMetrics().write_timeouts->Add(1);
      break;
    }
  }
  // Deregister before closing: Stop() only shutdown()s fds still in the
  // list, so a closed-and-reused descriptor number is never touched. The
  // notify feeds the accept loop's max_connections backpressure wait.
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    connection_fds_.erase(
        std::remove(connection_fds_.begin(), connection_fds_.end(), fd),
        connection_fds_.end());
  }
  connections_cv_.notify_all();
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
}

Response DsigServer::Handle(const Request& request) {
  const uint64_t start_ns = Deadline::NowNanos();
  Metrics().requests->Add(1);

  // Resolve the tenant up front: unknown ids fold into the default tenant
  // (bounded metric cardinality), and every response echoes the resolved id
  // so clients can see which fair-share bucket billed them.
  const uint32_t tenant = admission_.ResolveTenant(request.tenant_id);

  Response response;
  response.id = request.id;
  response.trace_id =
      request.trace_id != 0 ? request.trace_id : MintTraceId();
  response.tenant_id = tenant;

  // Ping, Stats, and Slo are health-check plumbing: constant-cost, never
  // queued, answered even while draining (an orchestrator probing a
  // draining server should get an answer, not a connection error).
  if (request.type == RequestType::kPing) {
    response.num_nodes = deployment_.graph->num_nodes();
    response.num_objects = deployment_.index->num_objects();
    const CategoryPartition& partition = deployment_.index->partition();
    response.suggested_epsilon =
        partition.Midpoint(partition.num_categories() / 2);
    FillObservability(&response);
    Metrics().ok->Add(1);
    return response;
  }
  if (request.type == RequestType::kStats) {
    slo_->PublishGauges();
    tenant_slo_->PublishGauges();
    response.text = "{\"metrics\": " + obs::MetricsRegistry::Global().ToJson() +
                    ", \"slo\": " + slo_->ReportJson() +
                    ", \"tenant_slo\": " + tenant_slo_->ReportJson() + "}";
    FillObservability(&response);
    Metrics().ok->Add(1);
    return response;
  }
  if (request.type == RequestType::kSlo) {
    response.text = SloText();
    FillObservability(&response);
    Metrics().ok->Add(1);
    return response;
  }

  if (stopping_.load(std::memory_order_relaxed)) {
    response.status = ResponseStatus::kShuttingDown;
    Metrics().shutting_down->Add(1);
    return response;
  }

  const double budget_ms = request.deadline_ms > 0
                               ? request.deadline_ms
                               : options_.default_deadline_ms;
  const Deadline deadline =
      budget_ms > 0 ? Deadline::AfterMillis(budget_ms) : Deadline::Infinite();

  const WorkClass work_class = request.type == RequestType::kUpdate
                                   ? WorkClass::kUpdate
                                   : WorkClass::kQuery;

  // The request's trace: every request collects totals + op/buffer deltas
  // (light, near-free); every trace_sample_period-th request upgrades to a
  // full span-rooting trace for phase attribution. Either way emission
  // happens only for SLO breaches (tail-based) via the slow-query log.
  const bool sample_phases =
      options_.trace_sample_period > 0 &&
      trace_seq_.fetch_add(1, std::memory_order_relaxed) %
              options_.trace_sample_period ==
          0;
  obs::QueryTrace trace(nullptr,
                        sample_phases ? obs::QueryTrace::Mode::kCollectRoot
                                      : obs::QueryTrace::Mode::kCollectLight);

  AdmissionController::AdmitResult admit;
  bool executed = false;
  bool handled = false;

  // Single-flight: checked BEFORE admission, so followers of a hot query
  // consume no execution slot and no queue space at all.
  std::unique_ptr<LeaderGuard> leader;
  if (Coalescible(request)) {
    const std::string key = CoalesceKey(request);
    SingleFlight::JoinResult join = flights_.Join(key, deadline);
    if (join.leader) {
      leader = std::make_unique<LeaderGuard>(&flights_, key);
      if (options_.coalesce_hold_for_test_ms > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            options_.coalesce_hold_for_test_ms));
      }
    } else if (join.ready) {
      // The leader's answer, re-stamped with THIS request's identity.
      const uint64_t trace_id = response.trace_id;
      response = std::move(join.response);
      response.id = request.id;
      response.trace_id = trace_id;
      response.tenant_id = tenant;
      executed = true;  // a real answer whose latency the caller observed
      handled = true;
    } else if (deadline.expired()) {
      // Waited the whole budget on a leader that never delivered.
      response.status = ResponseStatus::kDeadlineExceeded;
      handled = true;
    }
    // else: the leader abandoned (shed, errored) — fall through and run
    // this request normally on whatever budget remains.
  }

  if (!handled) {
    admit = admission_.Admit(work_class, tenant, deadline);
    switch (admit.outcome) {
      case AdmitOutcome::kShed:
        response.status = ResponseStatus::kRetryAfter;
        response.retry_after_ms = admit.retry_after_ms;
        break;
      case AdmitOutcome::kQueueTimeout:
        response.status = ResponseStatus::kDeadlineExceeded;
        break;
      case AdmitOutcome::kShuttingDown:
        response.status = ResponseStatus::kShuttingDown;
        break;
      case AdmitOutcome::kAdmitted: {
        // Plan: decide exact vs category-only BEFORE executing, from THIS
        // tenant's queue pressure at admission time — one tenant's flood
        // must not degrade another tenant's answers. Updates always run
        // the exact path — degrading a mutation makes no sense.
        const uint64_t trace_id = response.trace_id;
        if (request.type == RequestType::kUpdate) {
          response = ExecuteUpdate(request);
        } else {
          const bool refine = !admission_.QueuePressureAtLeast(
              WorkClass::kQuery, tenant, options_.degrade_queue_fraction);
          response = ExecuteQuery(request, deadline, refine);
        }
        response.trace_id = trace_id;  // Execute* builds a fresh Response
        response.tenant_id = tenant;
        admit.ticket.Release();
        executed = true;
        break;
      }
    }
    if (leader != nullptr && response.status == ResponseStatus::kOk &&
        response.degradation != Degradation::kOverload) {
      // Publish only complete exact answers; sheds, errors, partial results
      // and category-only answers abandon the flight (via the guard). The
      // degrade decision is this tenant's, so each follower is admitted
      // and planned under its own tenant's queue pressure instead.
      leader->Publish(response);
    }
  }
  const obs::TraceSummary summary = trace.Finish();

  switch (response.status) {
    case ResponseStatus::kOk:
      Metrics().ok->Add(1);
      break;
    case ResponseStatus::kRetryAfter:
      Metrics().retry_after->Add(1);
      break;
    case ResponseStatus::kDeadlineExceeded:
      Metrics().deadline_exceeded->Add(1);
      break;
    case ResponseStatus::kShuttingDown:
      Metrics().shutting_down->Add(1);
      break;
    case ResponseStatus::kError:
      Metrics().errors->Add(1);
      break;
  }
  if (response.degradation != Degradation::kNone) Metrics().degraded->Add(1);

  const double total_ms =
      static_cast<double>(Deadline::NowNanos() - start_ns) / 1e6;
  if (executed) {
    // Lifetime and windowed latency cover EXECUTED requests only, matching
    // the pre-window semantics: a shed request's ~0ms turnaround says
    // nothing about query latency. Queue wait gets its own window.
    Metrics().latency_ms->Record(total_ms);
    window_latency_ms_->Record(total_ms);
    window_queued_ms_->Record(admit.queued_ms);
  }

  // SLO accounting for every terminal outcome except shutdown (draining is
  // operator intent, not error budget). Breach + token = slow-query trace.
  // The per-tenant engine mirrors the per-class one: the isolation proof is
  // that the compliant tenant's class stays kOk while the flooder burns.
  const int slo_class = slo_->ClassIndex(RequestTypeName(request.type));
  if (response.status != ResponseStatus::kShuttingDown) {
    const bool ok = response.status == ResponseStatus::kOk;
    tenant_slo_->Record(static_cast<int>(tenant), total_ms, ok, executed);
    if (slo_class >= 0) {
      const bool breach = slo_->Record(slo_class, total_ms, ok, executed);
      if (breach && options_.slow_trace_sink != nullptr && AllowSlowTrace()) {
        EmitSlowTrace(request, response, summary, admit.queued_ms, total_ms,
                      slo_class);
      }
    }
  }
  return response;
}

void DsigServer::FillObservability(Response* response) const {
  obs::Histogram latency;
  window_latency_ms_->SnapshotWindow(kServeWindowNs, &latency);
  response->window.p50_ms = latency.Percentile(50);
  response->window.p99_ms = latency.Percentile(99);
  response->window.count = latency.Count();
  obs::Histogram queued;
  window_queued_ms_->SnapshotWindow(kServeWindowNs, &queued);
  response->window.queued_p99_ms = queued.Percentile(99);
  response->window.lifetime_p99_ms = Metrics().latency_ms->Percentile(99);
  response->slo = slo_->ReportAll();
  // Tenant health rides the same wire field; "tenant_" names keep the two
  // engines' classes distinguishable on the client side.
  std::vector<obs::SloClassHealth> tenants = tenant_slo_->ReportAll();
  response->slo.insert(response->slo.end(),
                       std::make_move_iterator(tenants.begin()),
                       std::make_move_iterator(tenants.end()));
}

std::string DsigServer::SloText() const {
  const std::vector<obs::SloClassHealth> classes = slo_->ReportAll();
  char line[512];
  std::string text;
  for (const obs::SloClassHealth& c : classes) {
    std::snprintf(
        line, sizeof(line),
        "SLO_HEALTH class=%s state=%s budget_ms=%.1f fast_burn=%.2f "
        "slow_burn=%.2f window_p99_ms=%.3f lifetime_p99_ms=%.3f "
        "window_count=%llu\n",
        c.name.c_str(), obs::SloStateName(c.state), c.latency_budget_ms,
        c.fast_burn, c.slow_burn, c.window_p99_ms, c.lifetime_p99_ms,
        static_cast<unsigned long long>(c.window_count));
    text += line;
  }
  for (const obs::SloClassHealth& c : tenant_slo_->ReportAll()) {
    std::snprintf(
        line, sizeof(line),
        "TENANT_HEALTH class=%s state=%s budget_ms=%.1f fast_burn=%.2f "
        "slow_burn=%.2f availability=%.4f window_p99_ms=%.3f "
        "window_count=%llu\n",
        c.name.c_str(), obs::SloStateName(c.state), c.latency_budget_ms,
        c.fast_burn, c.slow_burn, c.availability, c.window_p99_ms,
        static_cast<unsigned long long>(c.window_count));
    text += line;
  }
  obs::Histogram latency;
  window_latency_ms_->SnapshotWindow(kServeWindowNs, &latency);
  std::snprintf(
      line, sizeof(line),
      "SLO_OVERALL state=%s window_p99_ms=%.3f lifetime_p99_ms=%.3f "
      "window_count=%llu\n",
      obs::SloStateName(obs::SloEngine::Overall(classes)),
      latency.Percentile(99), Metrics().latency_ms->Percentile(99),
      static_cast<unsigned long long>(latency.Count()));
  text += line;
  return text;
}

bool DsigServer::AllowSlowTrace() {
  std::lock_guard<std::mutex> lock(slow_trace_mu_);
  const uint64_t now_ns = obs::MonotonicNanos();
  if (slow_trace_refill_ns_ == 0) {
    slow_trace_refill_ns_ = now_ns;
    slow_trace_tokens_ = options_.slow_trace_qps;  // full initial burst
  }
  const double elapsed_s =
      static_cast<double>(now_ns - slow_trace_refill_ns_) * 1e-9;
  slow_trace_refill_ns_ = now_ns;
  slow_trace_tokens_ =
      std::min(options_.slow_trace_qps,
               slow_trace_tokens_ + elapsed_s * options_.slow_trace_qps);
  if (slow_trace_tokens_ < 1.0) return false;
  slow_trace_tokens_ -= 1.0;
  return true;
}

void DsigServer::EmitSlowTrace(const Request& request,
                               const Response& response,
                               const obs::TraceSummary& summary,
                               double queued_ms, double total_ms,
                               int slo_class) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Field("trace_id", HexId(response.trace_id));
  w.Field("request_id", request.id);
  w.Field("class", RequestTypeName(request.type));
  w.Field("status", ResponseStatusName(response.status));
  w.Field("degradation", DegradationName(response.degradation));
  w.Field("total_ms", total_ms);
  w.Field("slo_budget_ms", slo_->objective(slo_class).latency_budget_ms);
  w.Key("spans").BeginObject();
  w.Field("queue_wait_ms", queued_ms);
  // False when this request was a light trace: phases_ms then reports the
  // whole execution as "other" rather than a real attribution.
  w.Key("sampled_phases").Bool(summary.has_phases);
  w.Key("phases_ms").BeginObject();
  if (summary.collected) {
    for (int p = 0; p < obs::kNumPhases; ++p) {
      w.Field(obs::PhaseName(static_cast<obs::Phase>(p)),
              summary.phases_ms[p]);
    }
  }
  w.EndObject();
  w.EndObject();
  w.Key("ops").BeginObject();
  summary.ops.ForEach(
      [&w](const char* name, uint64_t value) { w.Field(name, value); });
  w.EndObject();
  w.Key("buffer").BeginObject();
  w.Field("hits", summary.buffer.hits);
  w.Field("misses", summary.buffer.misses);
  w.Field("evictions", summary.buffer.evictions);
  w.Field("failed_reads", summary.buffer.failed_reads);
  w.EndObject();
  w.EndObject();

  std::string json = w.Take();
  json += '\n';
  // One fwrite per line under the bucket mutex: concurrent breaching
  // requests cannot interleave mid-record.
  std::lock_guard<std::mutex> lock(slow_trace_mu_);
  std::fwrite(json.data(), 1, json.size(), options_.slow_trace_sink);
  std::fflush(options_.slow_trace_sink);
}

Response DsigServer::ExecuteQuery(const Request& request,
                                  const Deadline& deadline, bool refine) {
  Response response;
  response.id = request.id;
  const SignatureIndex& index = *deployment_.index;

  if (request.node >= deployment_.graph->num_nodes()) {
    return ErrorResponse(request.id, "query node out of range");
  }
  if ((request.type == RequestType::kRange ||
       request.type == RequestType::kJoin) &&
      !(std::isfinite(request.epsilon) && request.epsilon >= 0)) {
    return ErrorResponse(request.id, "epsilon must be finite and >= 0");
  }

  // An already-dead request must cost nothing: no row read, no buffer-pool
  // traffic. (deadline_test.cc pins this with buffer-pool stats.)
  if (deadline.expired()) {
    response.status = ResponseStatus::kDeadlineExceeded;
    return response;
  }

  const DeadlineScope scope(deadline);
  // Decode-fault degradation is observed, not planned: diff this thread's
  // fallback counter across the query. OpCounters are thread-local, so the
  // delta is exactly this request's fallbacks.
  const uint64_t fallbacks_before = GlobalOpCounters().decode_fallbacks;

  bool deadline_exceeded = false;
  switch (request.type) {
    case RequestType::kKnn: {
      const size_t k =
          std::min<size_t>(request.k, deployment_.index->num_objects());
      const KnnResultType type =
          request.knn_type == 3 ? KnnResultType::kType3
          : request.knn_type == 2 ? KnnResultType::kType2
                                  : KnnResultType::kType1;
      KnnResult result =
          SignatureKnnQuery(index, request.node, k, type, refine);
      response.objects = std::move(result.objects);
      response.distances = std::move(result.distances);
      deadline_exceeded = result.deadline_exceeded;
      break;
    }
    case RequestType::kRange: {
      RangeQueryResult result =
          SignatureRangeQuery(index, request.node, request.epsilon, refine);
      response.objects = std::move(result.objects);
      deadline_exceeded = result.deadline_exceeded;
      break;
    }
    case RequestType::kJoin: {
      // Self-join: the deployment serves one dataset, joined with itself.
      const JoinResult result = SignatureEpsilonJoin(
          index, index, request.node, request.epsilon, refine);
      response.pair_left.reserve(result.pairs.size());
      response.pair_right.reserve(result.pairs.size());
      for (const JoinPair& pair : result.pairs) {
        response.pair_left.push_back(pair.left);
        response.pair_right.push_back(pair.right);
      }
      deadline_exceeded = result.deadline_exceeded;
      break;
    }
    default:
      return ErrorResponse(request.id, "unsupported query type");
  }

  if (deadline_exceeded) response.status = ResponseStatus::kDeadlineExceeded;
  if (!refine) {
    response.degradation = Degradation::kOverload;
  } else if (GlobalOpCounters().decode_fallbacks > fallbacks_before) {
    response.degradation = Degradation::kDecodeFault;
  }
  return response;
}

Response DsigServer::ExecuteUpdate(const Request& request) {
  Response response;
  response.id = request.id;
  if (deployment_.updater == nullptr) {
    return ErrorResponse(request.id, "server is read-only (no updater)");
  }
  UpdateRecord record;
  record.op = request.update_op;
  record.a = request.a;
  record.b = request.b;
  record.weight = request.weight;

  // DurableUpdater is single-writer; connection threads serialize here.
  // Queries need no lock of their own: the index's EpochGate keeps each one
  // entirely before or after every update.
  std::lock_guard<std::mutex> lock(update_mu_);
  StatusOr<UpdateStats> applied = deployment_.updater->Apply(record);
  if (!applied.ok()) {
    return ErrorResponse(request.id, applied.status().ToString());
  }
  // next_seq() is the seq of the NEXT record; ours, just applied under the
  // same lock, committed at next_seq() - 1. This is the durability ack the
  // chaos harness checks against recovery.
  response.update_seq = deployment_.updater->next_seq() - 1;
  response.rows_rewritten = applied->rows_rewritten;
  return response;
}

void DsigServer::Stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    // Already stopping/stopped; wait for the first Stop to have finished
    // joining by taking the connections mutex after the accept thread dies.
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }

  // 1. New requests fail fast: queued waiters wake with kShuttingDown and
  //    frames arriving after this answer SHUTTING_DOWN.
  admission_.Close();

  // 2. Stop accepting: shutdown() unblocks accept(); close() releases the
  //    fd; the notify unblocks an accept thread parked in max_connections
  //    backpressure (it re-checks stopping_ under the mutex).
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  { std::lock_guard<std::mutex> lock(connections_mu_); }
  connections_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();

  // 3. Drain: wait (bounded) for in-flight work to finish so every admitted
  //    request gets its response bytes out.
  const uint64_t drain_deadline_ns =
      Deadline::NowNanos() +
      static_cast<uint64_t>(kDrainTimeoutMs * 1e6);
  while (admission_.inflight(WorkClass::kQuery) +
             admission_.inflight(WorkClass::kUpdate) >
         0) {
    if (Deadline::NowNanos() >= drain_deadline_ns) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // 4. Unblock connection threads parked in recv() and join them.
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (const int fd : connection_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& t : connection_threads_) {
    if (t.joinable()) t.join();
  }
  listen_fd_ = -1;
}

}  // namespace serve
}  // namespace dsig
