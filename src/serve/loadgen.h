// Open-loop load generator for the dsig serving front-end.
//
// RunLoadgen drives a running DsigServer the way real traffic would: each
// sender thread draws a Poisson arrival schedule up front (exponential
// inter-arrivals at rate/threads) and issues each request at its scheduled
// instant regardless of how the previous one fared — the open-loop
// discipline that actually exposes overload, where closed-loop clients
// would politely self-throttle. Latency is measured from the *scheduled*
// arrival to completion, so queueing delay a slow server inflicts is
// charged to it (no coordinated omission).
//
// Failure handling mirrors a well-behaved production client:
//   * RETRY_AFTER   honour the server's hint, then exponential backoff with
//                   jitter, bounded by max_retries;
//   * socket timeout the stream is desynchronized — reconnect, then retry
//                   under the same backoff budget;
//   * DEADLINE_EXCEEDED counts as completed (a typed partial answer);
//   * SHUTTING_DOWN / ERROR are terminal for that arrival.
//
// The report carries everything the serve-smoke harness asserts on,
// including max_acked_seq: the highest WAL sequence number any OK update
// response carried. After kill -9, recovery must replay at least this far —
// that is the definition of "no acknowledged update lost".
#ifndef DSIG_SERVE_LOADGEN_H_
#define DSIG_SERVE_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "util/status.h"

namespace dsig {
namespace serve {

// Blocking client over one connection. Not thread-safe; one per sender.
class ServeClient {
 public:
  ServeClient() = default;
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;
  ~ServeClient();

  // Connects to 127.0.0.1:port with `timeout_ms` as both the connect
  // timeout and the deadline of each whole transfer in Call, moved through
  // serve/net.h's SendAll/RecvAll (<= 0 blocks forever).
  Status Connect(uint16_t port, double timeout_ms);
  bool connected() const { return fd_ >= 0; }
  void Close();

  // One request/response round trip. On a receive timeout, sets *timed_out
  // (when non-null), closes the connection (the stream is desynchronized —
  // the late response could otherwise be read as the answer to the next
  // request), and returns an error.
  StatusOr<Response> Call(const Request& request, bool* timed_out = nullptr);

 private:
  int fd_ = -1;
  double timeout_ms_ = 0;
};

// One tenant's slice of a multi-tenant workload: its wire id and its own
// open-loop arrival rate.
struct TenantLoad {
  std::string name = "default";
  uint32_t tenant_id = 0;  // rides the DSRV header tenant tail
  double rate = 0;         // arrivals/second for this tenant
};

struct LoadgenOptions {
  uint16_t port = 0;
  double duration_s = 5;
  double rate = 200;            // total arrivals/second across all threads
  int threads = 4;              // sender threads (per tenant)
  double update_fraction = 0.1;  // remaining arrivals are queries
  double join_fraction = 0.02;   // of arrivals; joins are the expensive tail
  double deadline_ms = 100;      // stamped on every request; <= 0 = none
  double timeout_ms = 1000;      // client-side socket timeout per attempt
  int max_retries = 3;
  // Decorrelated-jitter retry backoff: each sleep is drawn uniformly from
  // [base, 3 * previous_sleep] and clamped to the cap, floored by the
  // server's RETRY_AFTER hint. Unlike stepped exponential backoff, a shed
  // storm's retries spread out instead of resynchronizing at 2^k * base.
  double backoff_base_ms = 10;
  double backoff_cap_ms = 1000;
  uint64_t seed = 42;
  uint32_t knn_k = 8;
  double epsilon = 0;            // <= 0: use the server's Ping suggestion
  std::string report_path;       // non-empty: write a BenchReport JSON here

  // Multi-tenant workloads: one open-loop generator per entry, each with
  // `threads` senders at the entry's own rate. Empty runs one default
  // tenant (id 0) at `rate` — the single-tenant behavior.
  std::vector<TenantLoad> tenants;
};

// Per-tenant slice of a run; the isolation chaos test asserts on these.
struct TenantLoadReport {
  std::string name;
  uint32_t tenant_id = 0;
  uint64_t arrivals = 0;
  uint64_t completed = 0;
  uint64_t ok = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t shed = 0;
  uint64_t retried = 0;
  uint64_t reconnects = 0;
  uint64_t timeouts = 0;
  uint64_t failed = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double mean_ms = 0;
};

struct LoadgenReport {
  uint64_t arrivals = 0;           // scheduled arrivals issued
  uint64_t completed = 0;          // OK or DEADLINE_EXCEEDED answers
  uint64_t ok = 0;
  uint64_t deadline_exceeded = 0;  // typed partials (still completed)
  uint64_t shed = 0;               // RETRY_AFTER responses observed
  uint64_t retried = 0;            // retry attempts issued
  uint64_t reconnects = 0;         // mid-run connection re-establishments
  uint64_t timeouts = 0;           // client-side socket timeouts
  uint64_t shutting_down = 0;
  uint64_t errors = 0;             // kError responses
  uint64_t protocol_errors = 0;    // undecodable/socket-broken exchanges
  uint64_t failed = 0;             // arrivals abandoned (retries exhausted,
                                   // shutdown, or error)
  uint64_t degraded = 0;           // answers tagged kOverload / kDecodeFault
  uint64_t updates_acked = 0;      // OK update responses
  uint64_t max_acked_seq = 0;      // highest update_seq among them
  double p50_ms = 0;               // completed-arrival latency percentiles,
  double p99_ms = 0;               // scheduled-arrival -> answer
  double mean_ms = 0;
  double max_ms = 0;
  double actual_duration_s = 0;

  // One entry per configured tenant (empty for single-tenant runs).
  std::vector<TenantLoadReport> tenants;
};

// Runs the workload against a live server; fails only on setup errors
// (cannot connect / Ping at all). Writes options.report_path if set and
// prints nothing — callers print via FormatLoadgenSummary.
StatusOr<LoadgenReport> RunLoadgen(const LoadgenOptions& options);

// One greppable "LOADGEN_SUMMARY key=value ..." line, the interface the
// serve-smoke script scrapes — followed by one "TENANT_SUMMARY tenant=..."
// line per configured tenant on multi-tenant runs.
std::string FormatLoadgenSummary(const LoadgenReport& report);

}  // namespace serve
}  // namespace dsig

#endif  // DSIG_SERVE_LOADGEN_H_
