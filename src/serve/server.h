// The dsig serving front-end: a TCP server over one signature deployment.
//
// Request lifecycle (the "Serving, overload & degradation" section of
// ARCHITECTURE.md draws the state machine):
//
//   parse -> coalesce -> admit -> plan -> execute -> respond
//
//   * parse      length-prefixed frames (serve/protocol.h) moved through
//                serve/net.h with read/write deadlines (slowloris defense);
//                malformed bytes count serve.protocol_errors and close the
//                connection — never abort the process.
//   * coalesce   identical concurrent hot queries single-flight
//                (serve/coalesce.h): one leader executes, followers share
//                its exact answer without consuming admission slots. A
//                category-only leader answer is not shared; its followers
//                run on their own.
//   * admit      per-tenant bounded queues drained deficit-weighted
//                round-robin with token-bucket rate limits
//                (serve/admission.h). Shed replies RETRY_AFTER; a deadline
//                that passes while queued replies DEADLINE_EXCEEDED without
//                ever holding an execution slot.
//   * plan       under queue pressure (degrade_queue_fraction) queries run
//                the same query code category-only (`refine = false`: no
//                backtracking, category midpoints as distances) and are
//                tagged Degradation::kOverload. Updates never degrade.
//   * execute    queries run with the request's Deadline installed
//                (util/deadline.h); the query layer returns typed partial
//                results on expiry. Updates serialize through the single
//                DurableUpdater (WAL-first, fsync per its sync policy) — the
//                OK ack means the update is durable.
//   * respond    decode-fault fallbacks observed on this thread during
//                execution tag the response Degradation::kDecodeFault.
//
// Threading: one accept thread plus one thread per connection. Concurrency
// of actual work is bounded by admission, not by connection count — extra
// connections queue (backpressure) or shed. Queries hold the index's
// EpochGate shared and updates hold it exclusively, so a query sees each
// update whole or not at all.
//
// Shutdown: Stop() stops accepting, fails queued requests with
// SHUTTING_DOWN, lets in-flight requests finish (for at most 5 s), then
// closes connections. The dsig_serve binary follows with a final checkpoint.
#ifndef DSIG_SERVE_SERVER_H_
#define DSIG_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "io/durable_index.h"
#include "obs/slo.h"
#include "serve/admission.h"
#include "serve/coalesce.h"
#include "serve/protocol.h"

namespace dsig {
namespace obs {
class WindowedHistogram;
struct TraceSummary;
}  // namespace obs
}  // namespace dsig

namespace dsig {
namespace serve {

struct ServerOptions {
  uint16_t port = 0;  // 0 = kernel-assigned; see DsigServer::port()
  AdmissionController::Options admission;

  // Queries answer category-only (`refine = false`) when their tenant's
  // query queue is at or beyond this fraction of its bound. <= 0 degrades
  // every query (a test and brown-out hook); > 1 never degrades.
  double degrade_queue_fraction = 0.5;

  // Deadline applied to requests that carry none; <= 0 leaves them
  // unbounded.
  double default_deadline_ms = 0;

  // Per-request-class SLOs (obs/slo.h). Empty installs defaults for the
  // four request classes (knn, range, join, update).
  std::vector<obs::SloObjective> slo;
  obs::SloWindows slo_windows;

  // Tail-based trace sampling: full trace JSON lines for requests that
  // breach their class SLO go to `slow_trace_sink` (borrowed; nullptr
  // disables the slow-query log), rate-limited to `slow_trace_qps` lines
  // per second so an overload can't drown the log in its own diagnosis.
  double slow_trace_qps = 20;
  std::FILE* slow_trace_sink = nullptr;

  // Every request gets a light trace (total time + op/buffer deltas,
  // ~nothing); every Nth request is upgraded to a FULL trace whose spans
  // attribute the execution phases. Full tracing activates every Span on
  // the query's inner loops, which bench_trace_overhead prices at tens of
  // percent — affordable on a sample, not on every request. 1 traces
  // everything (tests); 0 disables phase attribution entirely.
  uint32_t trace_sample_period = 16;

  // Per-tenant SLOs, one objective per admission tenant, in tenant-id
  // order. Empty derives "tenant_<name>" objectives (100 ms p-budget, 99%
  // availability) for every configured tenant.
  std::vector<obs::SloObjective> tenant_slo;

  // Test hook: a single-flight leader (serve/coalesce.h) holds its flight
  // open this long before admission, so a test can pile followers onto it
  // deterministically.
  double coalesce_hold_for_test_ms = 0;

  // Hostile-client hardening (serve/net.h). Once a frame has started
  // arriving, the rest of it must land within read_timeout_ms (slowloris
  // defense); a response must drain within write_timeout_ms; an idle
  // connection may sit up to idle_timeout_ms between frames. <= 0 disables
  // the respective bound.
  double read_timeout_ms = 5000;
  double write_timeout_ms = 5000;
  double idle_timeout_ms = 0;

  // Accept backpressure: with more than this many open connections, the
  // accept loop holds new sockets un-serviced (the TCP backlog queues
  // behind them) until one frees. 0 = unlimited.
  size_t max_connections = 0;
};

class DsigServer {
 public:
  // The state being served. The server borrows everything; `updater` may be
  // null for read-only serving (updates then answer kError).
  struct Deployment {
    RoadNetwork* graph = nullptr;
    SignatureIndex* index = nullptr;
    DurableUpdater* updater = nullptr;
  };

  static StatusOr<std::unique_ptr<DsigServer>> Start(
      const Deployment& deployment, const ServerOptions& options);

  DsigServer(const DsigServer&) = delete;
  DsigServer& operator=(const DsigServer&) = delete;
  ~DsigServer();

  // The bound port (useful with options.port = 0).
  uint16_t port() const { return port_; }

  // Graceful shutdown per the class comment; idempotent, callable once the
  // caller decides to drain (e.g. on SIGTERM).
  void Stop();

  bool stopping() const { return stopping_.load(std::memory_order_relaxed); }

 private:
  DsigServer(const Deployment& deployment, const ServerOptions& options);

  void AcceptLoop();
  void ConnectionLoop(int fd);

  // Full request lifecycle minus parsing; never throws, never aborts.
  Response Handle(const Request& request);
  // `refine = false` answers from categories alone (the overload mode of
  // the query code) and tags the response Degradation::kOverload.
  Response ExecuteQuery(const Request& request, const Deadline& deadline,
                        bool refine);
  Response ExecuteUpdate(const Request& request);

  // Windowed serve-path stats + per-class SLO health into the response tail.
  void FillObservability(Response* response) const;
  // Greppable SLO_HEALTH / SLO_OVERALL text for the kSlo request.
  std::string SloText() const;
  // Token-bucket gate on the slow-query log; true grants one line.
  bool AllowSlowTrace();
  // One JSON line (trace tree: queue wait + execution phases + ops/buffer
  // deltas) to the slow-query sink for an SLO-breaching request.
  void EmitSlowTrace(const Request& request, const Response& response,
                     const obs::TraceSummary& summary, double queued_ms,
                     double total_ms, int slo_class);

  Deployment deployment_;
  ServerOptions options_;
  AdmissionController admission_;
  SingleFlight flights_;
  std::unique_ptr<obs::SloEngine> slo_;
  std::unique_ptr<obs::SloEngine> tenant_slo_;  // class index == tenant id
  obs::WindowedHistogram* window_latency_ms_;  // serve.latency_ms ring
  obs::WindowedHistogram* window_queued_ms_;   // serve.queued_ms ring
  std::mutex slow_trace_mu_;  // token bucket + sink writes
  double slow_trace_tokens_ = 0;
  uint64_t slow_trace_refill_ns_ = 0;
  std::atomic<uint64_t> trace_seq_{0};  // drives trace_sample_period
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::mutex connections_mu_;
  std::condition_variable connections_cv_;  // max_connections backpressure
  std::vector<int> connection_fds_;
  std::vector<std::thread> connection_threads_;
  std::mutex update_mu_;  // serializes the single-writer DurableUpdater
};

}  // namespace serve
}  // namespace dsig

#endif  // DSIG_SERVE_SERVER_H_
