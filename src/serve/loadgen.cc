#include "serve/loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#include "core/update_log.h"
#include "obs/bench_report.h"
#include "serve/net.h"
#include "util/deadline.h"
#include "util/random.h"

namespace dsig {
namespace serve {

ServeClient::~ServeClient() { Close(); }

void ServeClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status ServeClient::Connect(uint16_t port, double timeout_ms) {
  Close();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError("socket: " + std::string(std::strerror(errno)));
  }
  if (timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout_ms / 1000);
    tv.tv_usec = static_cast<suseconds_t>(
        std::fmod(timeout_ms, 1000.0) * 1000);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("connect: " + err);
  }
  fd_ = fd;
  timeout_ms_ = timeout_ms;
  return Status::Ok();
}

StatusOr<Response> ServeClient::Call(const Request& request, bool* timed_out) {
  if (timed_out != nullptr) *timed_out = false;
  if (fd_ < 0) return Status::IoError("Call: not connected");

  std::vector<uint8_t> out;
  EncodeRequest(request, &out);
  if (!SendAll(fd_, out.data(), out.size(), timeout_ms_).ok) {
    Close();
    return Status::IoError("Call: send failed");
  }

  uint8_t header[kFrameHeaderBytes];
  NetIoResult received = RecvAll(fd_, header, sizeof(header), timeout_ms_);
  if (!received.ok) {
    // Timed-out or broken either way the stream is desynchronized: a late
    // response must never be taken for the next request's answer.
    Close();
    if (received.timed_out && timed_out != nullptr) *timed_out = true;
    return Status::IoError(received.timed_out ? "Call: receive timeout"
                                              : "Call: connection broken");
  }
  uint32_t payload_len = 0;
  const Status header_status = CheckFrameHeader(header, &payload_len);
  if (!header_status.ok()) {
    Close();
    return header_status;
  }
  std::vector<uint8_t> payload(payload_len);
  received = RecvAll(fd_, payload.data(), payload_len, timeout_ms_);
  if (!received.ok) {
    Close();
    if (received.timed_out && timed_out != nullptr) *timed_out = true;
    return Status::IoError("Call: truncated response");
  }
  StatusOr<Response> response = DecodeResponse(payload.data(), payload_len);
  if (!response.ok()) Close();
  return response;
}

namespace {

struct ThreadStats {
  LoadgenReport counts;  // percentile fields unused here
  std::vector<double> latencies_ms;
};

struct WorkloadShape {
  uint64_t num_nodes = 0;
  uint64_t num_objects = 0;
  double epsilon = 0;
};

Request MakeArrival(const LoadgenOptions& options, const WorkloadShape& shape,
                    uint32_t tenant_id, Random& rng, uint64_t id) {
  Request request;
  request.id = id;
  request.deadline_ms = options.deadline_ms;
  request.tenant_id = tenant_id;
  // End-to-end trace id, carried through the DSRV header and echoed back;
  // | 1 because 0 means "absent" on the wire.
  request.trace_id = rng.NextUint64() | 1;
  const double u = rng.NextDouble();
  if (u < options.update_fraction) {
    request.type = RequestType::kUpdate;
    request.update_op = UpdateRecord::kAddEdge;
    request.a = static_cast<uint32_t>(rng.NextUint64(shape.num_nodes));
    do {
      request.b = static_cast<uint32_t>(rng.NextUint64(shape.num_nodes));
    } while (request.b == request.a);
    request.weight = rng.NextDouble(1.0, 10.0);
    return request;
  }
  request.node = static_cast<uint32_t>(rng.NextUint64(shape.num_nodes));
  const double query_u = u - options.update_fraction;
  if (query_u < options.join_fraction) {
    request.type = RequestType::kJoin;
    request.epsilon = shape.epsilon;
  } else if (query_u <
             options.join_fraction +
                 (1.0 - options.update_fraction - options.join_fraction) / 3) {
    request.type = RequestType::kRange;
    request.epsilon = shape.epsilon;
  } else {
    request.type = RequestType::kKnn;
    request.k = options.knn_k;
    request.knn_type = static_cast<uint8_t>(1 + rng.NextUint64(3));
  }
  return request;
}

// Decorrelated jitter: sleep ~ U[base, 3 * previous sleep], clamped to the
// cap and floored by the server's RETRY_AFTER hint. Stepped exponential
// backoff re-synchronizes a shed storm at 2^k * base — every client that was
// shed together retries together; drawing from a range anchored to each
// client's own previous sleep spreads them out instead. `*prev_ms` carries
// the state across one arrival's retry chain.
double BackoffMillis(const LoadgenOptions& options, double hint,
                     double* prev_ms, Random& rng) {
  const double base = std::max(options.backoff_base_ms, 1.0);
  const double upper = std::max(base, 3.0 * *prev_ms);
  double sleep_ms = rng.NextDouble(base, upper);
  sleep_ms = std::min(sleep_ms, std::max(options.backoff_cap_ms, base));
  *prev_ms = sleep_ms;
  return std::max(hint, sleep_ms);
}

// Drives one arrival to a terminal outcome (answer, exhausted retries, or a
// terminal status). Returns via `stats`; latency is charged from the
// scheduled arrival instant.
void IssueArrival(const LoadgenOptions& options, ServeClient& client,
                  const Request& request, uint64_t scheduled_ns, Random& rng,
                  ThreadStats& stats) {
  ++stats.counts.arrivals;
  double prev_backoff_ms = options.backoff_base_ms;
  for (int attempt = 0; attempt <= options.max_retries; ++attempt) {
    if (attempt > 0) ++stats.counts.retried;
    if (!client.connected()) {
      ++stats.counts.reconnects;
      if (!client.Connect(options.port, options.timeout_ms).ok()) {
        // Server gone (crashed or drained): terminal for this arrival.
        ++stats.counts.failed;
        return;
      }
    }
    bool timed_out = false;
    StatusOr<Response> result = client.Call(request, &timed_out);
    if (!result.ok()) {
      if (timed_out) {
        ++stats.counts.timeouts;
      } else {
        ++stats.counts.protocol_errors;
      }
      if (attempt == options.max_retries) {
        ++stats.counts.failed;
        return;
      }
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          BackoffMillis(options, 0, &prev_backoff_ms, rng)));
      continue;
    }
    const Response& response = *result;
    switch (response.status) {
      case ResponseStatus::kOk:
      case ResponseStatus::kDeadlineExceeded: {
        ++stats.counts.completed;
        if (response.status == ResponseStatus::kOk) {
          ++stats.counts.ok;
          if (request.type == RequestType::kUpdate) {
            ++stats.counts.updates_acked;
            stats.counts.max_acked_seq =
                std::max(stats.counts.max_acked_seq, response.update_seq);
          }
        } else {
          ++stats.counts.deadline_exceeded;
        }
        if (response.degradation != Degradation::kNone) {
          ++stats.counts.degraded;
        }
        stats.latencies_ms.push_back(
            static_cast<double>(Deadline::NowNanos() - scheduled_ns) / 1e6);
        return;
      }
      case ResponseStatus::kRetryAfter: {
        ++stats.counts.shed;
        if (attempt == options.max_retries) {
          ++stats.counts.failed;
          return;
        }
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            BackoffMillis(options, response.retry_after_ms, &prev_backoff_ms,
                          rng)));
        continue;
      }
      case ResponseStatus::kShuttingDown:
        ++stats.counts.shutting_down;
        ++stats.counts.failed;
        return;
      case ResponseStatus::kError:
        ++stats.counts.errors;
        ++stats.counts.failed;
        return;
    }
  }
}

void SenderLoop(const LoadgenOptions& options, const WorkloadShape& shape,
                const TenantLoad& tenant, double tenant_rate, int thread_index,
                uint64_t base_ns, ThreadStats& stats) {
  // Distinct, decorrelated stream per thread; 7919 is just a prime mixer.
  Random rng(options.seed + 7919ull * static_cast<uint64_t>(thread_index + 1));
  ServeClient client;
  (void)client.Connect(options.port, options.timeout_ms);

  const double per_thread_rate = tenant_rate / std::max(options.threads, 1);
  uint64_t next_id = static_cast<uint64_t>(thread_index) << 40;
  double t_s = 0;
  for (;;) {
    // Poisson arrivals: exponential inter-arrival times, scheduled against
    // the shared epoch so lateness is the server's, not the schedule's.
    t_s += -std::log(1.0 - rng.NextDouble()) / per_thread_rate;
    if (t_s >= options.duration_s) break;
    const uint64_t scheduled_ns =
        base_ns + static_cast<uint64_t>(t_s * 1e9);
    const uint64_t now_ns = Deadline::NowNanos();
    if (scheduled_ns > now_ns) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(scheduled_ns - now_ns));
    }
    const Request request =
        MakeArrival(options, shape, tenant.tenant_id, rng, ++next_id);
    IssueArrival(options, client, request, scheduled_ns, rng, stats);
  }
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

void WriteReportJson(const LoadgenOptions& options,
                     const LoadgenReport& report,
                     const std::vector<double>& sorted_ms) {
  obs::BenchReport bench("serve");
  bench.SetParam("rate", options.rate);
  bench.SetParam("threads", static_cast<double>(options.threads));
  bench.SetParam("duration_s", options.duration_s);
  bench.SetParam("deadline_ms", options.deadline_ms);
  bench.SetParam("update_fraction", options.update_fraction);
  bench.SetParam("seed", static_cast<double>(options.seed));

  obs::BenchReport::Point* point =
      bench.AddPoint("loadgen", "open_loop", std::to_string(options.rate));
  point->queries = report.completed;
  point->metrics["arrivals"] = static_cast<double>(report.arrivals);
  point->metrics["completed"] = static_cast<double>(report.completed);
  point->metrics["ok"] = static_cast<double>(report.ok);
  point->metrics["deadline_exceeded"] =
      static_cast<double>(report.deadline_exceeded);
  point->metrics["shed"] = static_cast<double>(report.shed);
  point->metrics["retried"] = static_cast<double>(report.retried);
  point->metrics["reconnects"] = static_cast<double>(report.reconnects);
  point->metrics["timeouts"] = static_cast<double>(report.timeouts);
  point->metrics["failed"] = static_cast<double>(report.failed);
  point->metrics["degraded"] = static_cast<double>(report.degraded);
  point->metrics["errors"] = static_cast<double>(report.errors);
  point->metrics["protocol_errors"] =
      static_cast<double>(report.protocol_errors);
  point->metrics["updates_acked"] = static_cast<double>(report.updates_acked);
  point->metrics["max_acked_seq"] = static_cast<double>(report.max_acked_seq);
  point->metrics["mean_ms"] = report.mean_ms;
  if (!sorted_ms.empty()) {
    point->has_latency = true;
    point->latency.count = sorted_ms.size();
    double sum = 0;
    for (const double v : sorted_ms) sum += v;
    point->latency.sum = sum;
    point->latency.min = sorted_ms.front();
    point->latency.max = sorted_ms.back();
    point->latency.p50 = Percentile(sorted_ms, 0.50);
    point->latency.p90 = Percentile(sorted_ms, 0.90);
    point->latency.p99 = Percentile(sorted_ms, 0.99);
  }
  // One point per tenant: retry/reconnect behavior and the latency tail the
  // isolation assertions read straight out of serve_report.json.
  for (const TenantLoadReport& t : report.tenants) {
    obs::BenchReport::Point* tenant_point =
        bench.AddPoint("loadgen_tenant", t.name,
                       std::to_string(t.tenant_id));
    tenant_point->queries = t.completed;
    tenant_point->metrics["tenant_id"] = static_cast<double>(t.tenant_id);
    tenant_point->metrics["arrivals"] = static_cast<double>(t.arrivals);
    tenant_point->metrics["completed"] = static_cast<double>(t.completed);
    tenant_point->metrics["ok"] = static_cast<double>(t.ok);
    tenant_point->metrics["deadline_exceeded"] =
        static_cast<double>(t.deadline_exceeded);
    tenant_point->metrics["shed"] = static_cast<double>(t.shed);
    tenant_point->metrics["retried"] = static_cast<double>(t.retried);
    tenant_point->metrics["reconnects"] = static_cast<double>(t.reconnects);
    tenant_point->metrics["timeouts"] = static_cast<double>(t.timeouts);
    tenant_point->metrics["failed"] = static_cast<double>(t.failed);
    tenant_point->metrics["p50_ms"] = t.p50_ms;
    tenant_point->metrics["p99_ms"] = t.p99_ms;
    tenant_point->metrics["mean_ms"] = t.mean_ms;
  }
  bench.WriteFile(options.report_path);
}

}  // namespace

StatusOr<LoadgenReport> RunLoadgen(const LoadgenOptions& options) {
  if (options.rate <= 0 || options.duration_s <= 0 || options.threads <= 0) {
    return Status::InvalidArgument(
        "RunLoadgen: rate, duration_s, threads must be positive");
  }
  // Self-configure against the live deployment.
  WorkloadShape shape;
  {
    ServeClient probe;
    Status connected = probe.Connect(options.port, options.timeout_ms);
    if (!connected.ok()) return connected;
    Request ping;
    ping.type = RequestType::kPing;
    ping.id = 1;
    StatusOr<Response> pong = probe.Call(ping);
    if (!pong.ok()) return pong.status();
    shape.num_nodes = pong->num_nodes;
    shape.num_objects = pong->num_objects;
    shape.epsilon =
        options.epsilon > 0 ? options.epsilon : pong->suggested_epsilon;
  }
  if (shape.num_nodes == 0) {
    return Status::InvalidArgument("RunLoadgen: server reports 0 nodes");
  }

  // One open-loop generator per tenant, `threads` senders each. The default
  // single-tenant run is just the one-entry case of the same machinery.
  std::vector<TenantLoad> tenants = options.tenants;
  const bool multi_tenant = !tenants.empty();
  if (tenants.empty()) {
    tenants.push_back({"default", 0, options.rate});
  }
  const size_t threads_per_tenant = static_cast<size_t>(options.threads);
  std::vector<ThreadStats> per_thread(tenants.size() * threads_per_tenant);
  std::vector<std::thread> senders;
  senders.reserve(per_thread.size());
  const uint64_t base_ns = Deadline::NowNanos();
  for (size_t t = 0; t < tenants.size(); ++t) {
    const double tenant_rate =
        tenants[t].rate > 0 ? tenants[t].rate : options.rate;
    for (size_t i = 0; i < threads_per_tenant; ++i) {
      const size_t slot = t * threads_per_tenant + i;
      senders.emplace_back([&, t, tenant_rate, slot] {
        SenderLoop(options, shape, tenants[t], tenant_rate,
                   static_cast<int>(slot), base_ns, per_thread[slot]);
      });
    }
  }
  for (std::thread& t : senders) t.join();

  LoadgenReport report;
  std::vector<double> latencies;
  for (const ThreadStats& stats : per_thread) {
    const LoadgenReport& c = stats.counts;
    report.arrivals += c.arrivals;
    report.completed += c.completed;
    report.ok += c.ok;
    report.deadline_exceeded += c.deadline_exceeded;
    report.shed += c.shed;
    report.retried += c.retried;
    report.reconnects += c.reconnects;
    report.timeouts += c.timeouts;
    report.shutting_down += c.shutting_down;
    report.errors += c.errors;
    report.protocol_errors += c.protocol_errors;
    report.failed += c.failed;
    report.degraded += c.degraded;
    report.updates_acked += c.updates_acked;
    report.max_acked_seq = std::max(report.max_acked_seq, c.max_acked_seq);
    latencies.insert(latencies.end(), stats.latencies_ms.begin(),
                     stats.latencies_ms.end());
  }
  if (multi_tenant) {
    for (size_t t = 0; t < tenants.size(); ++t) {
      TenantLoadReport tenant_report;
      tenant_report.name = tenants[t].name;
      tenant_report.tenant_id = tenants[t].tenant_id;
      std::vector<double> tenant_latencies;
      for (size_t i = 0; i < threads_per_tenant; ++i) {
        const ThreadStats& stats = per_thread[t * threads_per_tenant + i];
        const LoadgenReport& c = stats.counts;
        tenant_report.arrivals += c.arrivals;
        tenant_report.completed += c.completed;
        tenant_report.ok += c.ok;
        tenant_report.deadline_exceeded += c.deadline_exceeded;
        tenant_report.shed += c.shed;
        tenant_report.retried += c.retried;
        tenant_report.reconnects += c.reconnects;
        tenant_report.timeouts += c.timeouts;
        tenant_report.failed += c.failed;
        tenant_latencies.insert(tenant_latencies.end(),
                                stats.latencies_ms.begin(),
                                stats.latencies_ms.end());
      }
      std::sort(tenant_latencies.begin(), tenant_latencies.end());
      if (!tenant_latencies.empty()) {
        double sum = 0;
        for (const double v : tenant_latencies) sum += v;
        tenant_report.mean_ms =
            sum / static_cast<double>(tenant_latencies.size());
        tenant_report.p50_ms = Percentile(tenant_latencies, 0.50);
        tenant_report.p99_ms = Percentile(tenant_latencies, 0.99);
      }
      report.tenants.push_back(std::move(tenant_report));
    }
  }
  std::sort(latencies.begin(), latencies.end());
  if (!latencies.empty()) {
    double sum = 0;
    for (const double v : latencies) sum += v;
    report.mean_ms = sum / static_cast<double>(latencies.size());
    report.max_ms = latencies.back();
    report.p50_ms = Percentile(latencies, 0.50);
    report.p99_ms = Percentile(latencies, 0.99);
  }
  report.actual_duration_s =
      static_cast<double>(Deadline::NowNanos() - base_ns) / 1e9;

  if (!options.report_path.empty()) {
    WriteReportJson(options, report, latencies);
  }
  return report;
}

std::string FormatLoadgenSummary(const LoadgenReport& report) {
  std::ostringstream os;
  os << "LOADGEN_SUMMARY"
     << " arrivals=" << report.arrivals << " completed=" << report.completed
     << " ok=" << report.ok
     << " deadline_exceeded=" << report.deadline_exceeded
     << " shed=" << report.shed << " retried=" << report.retried
     << " reconnects=" << report.reconnects
     << " timeouts=" << report.timeouts
     << " shutting_down=" << report.shutting_down
     << " errors=" << report.errors
     << " protocol_errors=" << report.protocol_errors
     << " failed=" << report.failed << " degraded=" << report.degraded
     << " updates_acked=" << report.updates_acked
     << " max_acked_seq=" << report.max_acked_seq << " p50_ms=" << report.p50_ms
     << " p99_ms=" << report.p99_ms << " mean_ms=" << report.mean_ms
     << " max_ms=" << report.max_ms
     << " duration_s=" << report.actual_duration_s;
  for (const TenantLoadReport& t : report.tenants) {
    os << "\nTENANT_SUMMARY tenant=" << t.name << " tenant_id=" << t.tenant_id
       << " arrivals=" << t.arrivals << " completed=" << t.completed
       << " ok=" << t.ok << " deadline_exceeded=" << t.deadline_exceeded
       << " shed=" << t.shed << " retried=" << t.retried
       << " reconnects=" << t.reconnects << " timeouts=" << t.timeouts
       << " failed=" << t.failed << " p50_ms=" << t.p50_ms
       << " p99_ms=" << t.p99_ms << " mean_ms=" << t.mean_ms;
  }
  return os.str();
}

}  // namespace serve
}  // namespace dsig
