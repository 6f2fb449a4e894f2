// bench_serve: an answer-checked loopback benchmark of the dsig server.
//
// One process builds a deployment (network, signature index, hub labels,
// durable updater), starts a serve::DsigServer on loopback, and drives it
// with serve::ServeClient over at most four connections, one sender thread
// each. Every answer is checked against Dijkstra ground truth (oracle.h).
//
//   bench_serve --workload=hot_closed|scan_open|churn --seed=N
//               [--seconds=20] [--trace=0|1] [--json=FILE]
//               [--state-dir=DIR] [--nodes=N]
//
// Prints "METRIC workload=W name=N value=V unit=U" for every metric and,
// with --json, writes them all (plus the run's parameters) to FILE. Exits 1
// on a set-up error or a wrong answer.
//
// --trace=1 splits the measured time in two: an untraced half like a
// --trace=0 run, then a half against a server that logs one trace line per
// request. The per-layer metrics come from the traced half and from
// replaying its requests through the layers' public functions;
// trace.overhead_pct compares the two halves.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/hub_labels.h"
#include "core/signature_builder.h"
#include "core/update_log.h"
#include "graph/graph_generator.h"
#include "io/durable_index.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "oracle.h"
#include "serve/degrade.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "util/flags.h"
#include "util/hexid.h"
#include "util/random.h"
#include "util/simd/simd.h"
#include "util/thread_pool.h"
#include "workload/dataset_generator.h"

namespace servebench {
namespace {

using dsig::DurableUpdater;
using dsig::Random;
using dsig::RoadNetwork;
using dsig::SignatureIndex;
using dsig::serve::Request;
using dsig::serve::RequestType;
using dsig::serve::Response;
using dsig::serve::ResponseStatus;

constexpr int kConnections = 4;
// The network, the object placement and the Zipf hot set are the same for
// every run; --seed drives the request streams. Across generator seeds,
// scan_open's kNN p50 ranged 2.2-7.1 ms and the hot set alone moved
// hot_closed's kNN p50 2.6x, which no regression bound could absorb.
constexpr uint64_t kDeploymentSeed = 1;
// Recorded in place of +infinity for a failed request's latency.
constexpr float kFailedLatencyMs = 1e9f;
// Receive timeout per call. Only a wedged server should ever hit it.
constexpr double kCallTimeoutMs = 60000;
constexpr int kSetups = 3;
constexpr double kWarmupS = 3;

uint64_t NowNs() { return dsig::obs::MonotonicNanos(); }
double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, q in (0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ---------------------------------------------------------------------------
// Deployment

struct SetupTimes {
  double graph_s = 0;
  double index_s = 0;
  double labels_s = 0;
  double durable_init_s = 0;
  double server_start_s = 0;
  double total_s = 0;
};

// Members are destroyed bottom-up: the server borrows everything above it,
// the updater the graph and the index.
struct Deployment {
  std::unique_ptr<RoadNetwork> graph;
  std::unique_ptr<SignatureIndex> index;
  std::unique_ptr<DurableUpdater> updater;
  std::unique_ptr<dsig::serve::DsigServer> server;
  SetupTimes times;
  uint64_t checkpoint_bytes = 0;  // the durable directory after set-up
};

// The options dsig_serve runs with when given no flags: the struct's
// defaults plus its explicit per-class SLOs. No request carries a deadline
// and default_deadline_ms is 0, so every answer is complete and checkable.
dsig::serve::ServerOptions DefaultServerOptions() {
  dsig::serve::ServerOptions options;
  options.slo = {{"knn", 50, 0.99},
                 {"range", 50, 0.99},
                 {"join", 250, 0.99},
                 {"update", 100, 0.99}};
  return options;
}

// Every request breaches a zero latency budget and the slow-query log takes
// every breach, so with full phase sampling each executed request writes
// one trace line to `sink`.
dsig::serve::ServerOptions TracedServerOptions(std::FILE* sink) {
  dsig::serve::ServerOptions options = DefaultServerOptions();
  options.trace_sample_period = 1;
  for (dsig::obs::SloObjective& slo : options.slo) slo.latency_budget_ms = 0;
  options.slow_trace_qps = 1e9;
  options.slow_trace_sink = sink;
  return options;
}

// Replaces the running server (if any) with one started with `options`.
dsig::Status StartServer(Deployment* d,
                         const dsig::serve::ServerOptions& options) {
  d->server.reset();
  auto server = dsig::serve::DsigServer::Start(
      {d->graph.get(), d->index.get(), d->updater.get()}, options);
  if (!server.ok()) return server.status();
  d->server = std::move(server).value();
  return dsig::Status::Ok();
}

// MakeRandomPlanar -> UniformDataset -> BuildSignatureIndex -> hub labels ->
// DurableUpdater::Initialize -> DsigServer::Start, each step timed.
dsig::Status SetUp(size_t nodes, uint64_t seed, const std::string& dir,
                   Deployment* d) {
  const uint64_t t0 = NowNs();
  d->graph = std::make_unique<RoadNetwork>(
      dsig::MakeRandomPlanar({.num_nodes = nodes, .seed = seed}));
  d->times.graph_s = SecondsSince(t0);

  uint64_t t = NowNs();
  d->index = dsig::BuildSignatureIndex(
      *d->graph, dsig::UniformDataset(*d->graph, 0.01, seed + 1),
      {.t = 10, .c = 2.718281828, .keep_forest = true});
  d->times.index_s = SecondsSince(t);

  t = NowNs();
  d->index->set_hub_labels(
      dsig::HubLabels::Build(*d->graph, {}, &dsig::ThreadPool::Global()));
  d->times.labels_s = SecondsSince(t);

  t = NowNs();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return dsig::Status::IoError("cannot create " + dir);
  dsig::DurableOptions durable;
  durable.sync = dsig::DurableOptions::SyncMode::kEveryRecord;
  durable.checkpoint_interval = 64;
  durable.ckpt_retries = 2;
  auto updater = DurableUpdater::Initialize(dir, d->graph.get(),
                                            d->index.get(), durable);
  if (!updater.ok()) return updater.status();
  d->updater = std::move(updater).value();
  d->times.durable_init_s = SecondsSince(t);

  t = NowNs();
  const dsig::Status started = StartServer(d, DefaultServerOptions());
  if (!started.ok()) return started;
  d->times.server_start_s = SecondsSince(t);
  d->times.total_s = SecondsSince(t0);

  d->checkpoint_bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) d->checkpoint_bytes += entry.file_size();
  }
  return dsig::Status::Ok();
}

void TearDown(Deployment* d) {
  d->server.reset();
  if (d->updater != nullptr) (void)d->updater->Close();
  d->updater.reset();
  d->index.reset();
  d->graph.reset();
}

// ---------------------------------------------------------------------------
// Workloads

enum Cls : uint8_t { kKnn = 0, kRange, kJoin, kUpdate, kNumCls };
constexpr const char* kClsName[kNumCls] = {"knn", "range", "join", "update"};

// One connection's traffic.
struct Stream {
  double rate = 0;  // Poisson arrivals/s; 0 = closed loop
  double mix[kNumCls] = {};
  uint32_t knn_k = 8;
  bool knn_all_types = true;  // types 1/2/3 equally, else type 1 only
  double range_eps = 0;
  double join_eps = 0;
};

struct Workload {
  bool zipf = false;       // query nodes Zipf(1.1) over a node permutation
  bool read_only = true;   // exact checks during traffic
  Stream streams[kConnections];
};

// Network size per workload; 0 for an unknown name. churn runs on a smaller
// city: there one update rewrites at most a few thousand rows, tens of ms
// under the exclusive epoch gate, so reads meet stale labels but seldom a
// stall. At 20,000 nodes one update in ten holds the gate for most of a
// second, and read p90 swings from run to run with how many such updates
// land in the window.
size_t DefaultNodes(const std::string& name) {
  if (name == "hot_closed" || name == "scan_open") return 20000;
  if (name == "churn") return 5000;
  return 0;
}

double Midpoint(const SignatureIndex& index, int category) {
  const dsig::CategoryPartition& p = index.partition();
  return dsig::serve::CategoryMidpoint(
      p, std::min(category, p.num_categories() - 1));
}

Workload MakeWorkload(const std::string& name, const SignatureIndex& index) {
  const double eps1 = Midpoint(index, 1);
  Stream reads;
  reads.mix[kKnn] = reads.mix[kRange] = 0.5;
  reads.range_eps = eps1;
  reads.join_eps = eps1;
  Stream joins;
  joins.mix[kJoin] = 1;
  joins.join_eps = eps1;

  Workload w;
  if (name == "hot_closed") {
    // Closed loop over a skewed working set of cheap queries: capacity and
    // front-end cost. One request in a thousand is a join.
    w.zipf = true;
    reads.mix[kKnn] = reads.mix[kRange] = 0.4995;
    reads.mix[kJoin] = 0.001;
    for (Stream& s : w.streams) s = reads;
  } else if (name == "scan_open") {
    // Open loop, uniform nodes, milliseconds of query work per request, one
    // class per connection so no request queues behind another class.
    // k = 100 and the category-4 radius keep each class's latency unimodal:
    // at k = 50 half the queries take 0.2-0.7 ms and half 3-6 ms, and the
    // median falls in the gap. Each connection stays under 20% busy; at
    // 40-60% the queueing on it amplified the box's speed drift into 27%
    // run-to-run spread of range p90.
    Stream knn = reads;
    knn.mix[kRange] = 0;
    knn.rate = 25;
    knn.knn_k = 100;
    knn.knn_all_types = false;
    Stream range = reads;
    range.mix[kKnn] = 0;
    range.rate = 60;
    range.range_eps = Midpoint(index, 4);
    w.streams[0] = w.streams[1] = knn;
    w.streams[2] = range;
    w.streams[3] = joins;
    w.streams[3].rate = 20;
  } else {
    // churn: open-loop reads next to durable weight updates, one class per
    // connection. No joins: with stale labels a join takes seconds, and
    // every update would wait behind its read snapshot.
    w.read_only = false;
    Stream knn = reads;
    knn.mix[kRange] = 0;
    knn.rate = 150;
    Stream range = reads;
    range.mix[kKnn] = 0;
    range.rate = 300;
    w.streams[0] = w.streams[1] = knn;
    w.streams[2] = range;
    w.streams[3].mix[kUpdate] = 1;
    w.streams[3].rate = 5;
  }
  return w;
}

// Zipf(s) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += std::pow(static_cast<double>(i + 1), -s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Sample(Random& rng) const {
    const size_t i = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), rng.NextDouble()) -
        cdf_.begin());
    return std::min(i, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------------
// Traffic

// A window request whose server trace line the traced run looks up.
struct TracedCall {
  uint64_t trace_id = 0;
  float rtt_us = 0;  // send -> response, this client's view
  Cls cls = kKnn;
};

// What one traffic run measured. Counts cover warm-up too; samples cover
// the measured window only. Kept compact (a float per request) so that the
// bench's own memory barely moves rss_mb when throughput changes.
struct Traffic {
  std::vector<float> latency_ms[kNumCls];
  uint64_t completed = 0;  // correct answers due in the window
  std::vector<TracedCall> calls;  // only when trace ids are kept
  std::vector<double> rows_rewritten;
  std::vector<double> late_ms;  // open-loop wake-up lateness
  std::vector<Request> sample_requests;
  std::vector<Response> sample_responses;
  uint64_t attempted = 0;
  uint64_t transport_errors = 0;
  uint64_t rejected = 0;  // non-OK or degraded answers
  uint64_t mismatches = 0;
  uint64_t window_start_ns = 0;
  uint64_t window_end_ns = 0;

  void Merge(Traffic&& o) {
    for (int c = 0; c < kNumCls; ++c) {
      latency_ms[c].insert(latency_ms[c].end(), o.latency_ms[c].begin(),
                           o.latency_ms[c].end());
    }
    completed += o.completed;
    calls.insert(calls.end(), o.calls.begin(), o.calls.end());
    rows_rewritten.insert(rows_rewritten.end(), o.rows_rewritten.begin(),
                          o.rows_rewritten.end());
    late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
    std::move(o.sample_requests.begin(), o.sample_requests.end(),
              std::back_inserter(sample_requests));
    std::move(o.sample_responses.begin(), o.sample_responses.end(),
              std::back_inserter(sample_responses));
    attempted += o.attempted;
    transport_errors += o.transport_errors;
    rejected += o.rejected;
    mismatches += o.mismatches;
  }
  uint64_t failed() const { return transport_errors + rejected + mismatches; }
  // Every window sample of the given classes.
  std::vector<double> Latencies(std::initializer_list<Cls> classes) const {
    std::vector<double> out;
    for (const Cls c : classes) {
      out.insert(out.end(), latency_ms[c].begin(), latency_ms[c].end());
    }
    return out;
  }
  std::vector<double> ReadLatencies() const {
    return Latencies({kKnn, kRange, kJoin});
  }
  // Correct answers per second of window.
  double Throughput() const {
    return static_cast<double>(completed) /
           (static_cast<double>(window_end_ns - window_start_ns) * 1e-9);
  }
};

// What the senders share; read-only while they run.
struct TrafficContext {
  uint16_t port = 0;
  const Workload* workload = nullptr;
  const Oracle* oracle = nullptr;  // null: shape checks only
  const PairList* join_truth = nullptr;  // exact; no workload joins under churn
  size_t num_nodes = 0;
  size_t num_objects = 0;
  size_t num_edge_slots = 0;
  const std::vector<dsig::NodeId>* permutation = nullptr;
  const Zipf* zipf = nullptr;  // null: uniform nodes
  bool keep_trace_ids = false;
};

void ReportMismatch(const Request& request, const std::string& why) {
  static std::mutex mu;
  static int reported = 0;
  std::lock_guard<std::mutex> lock(mu);
  if (++reported > 10) return;
  std::fprintf(stderr, "MISMATCH %s node=%u k=%u type=%u eps=%.17g: %s\n",
               dsig::serve::RequestTypeName(request.type), request.node,
               request.k, request.knn_type, request.epsilon, why.c_str());
}

Request MakeRequest(const TrafficContext& ctx, const Stream& stream,
                    Random& rng, uint64_t id, Cls* cls) {
  double u = rng.NextDouble() * (stream.mix[kKnn] + stream.mix[kRange] +
                                 stream.mix[kJoin] + stream.mix[kUpdate]);
  int c = 0;
  while (c < kNumCls - 1 && u >= stream.mix[c]) u -= stream.mix[c++];
  *cls = static_cast<Cls>(c);

  Request request;
  request.id = id;
  request.trace_id = rng.NextUint64() | 1;  // 0 means "none" on the wire
  if (*cls == kUpdate) {
    request.type = RequestType::kUpdate;
    request.update_op = dsig::UpdateRecord::kSetEdgeWeight;
    request.a = static_cast<uint32_t>(rng.NextUint64(ctx.num_edge_slots));
    request.weight = static_cast<double>(1 + rng.NextUint64(10));
    return request;
  }
  request.node = ctx.zipf != nullptr
                     ? (*ctx.permutation)[ctx.zipf->Sample(rng)]
                     : static_cast<uint32_t>(rng.NextUint64(ctx.num_nodes));
  if (*cls == kKnn) {
    request.type = RequestType::kKnn;
    request.k = stream.knn_k;
    request.knn_type =
        static_cast<uint8_t>(stream.knn_all_types ? 1 + rng.NextUint64(3) : 1);
  } else if (*cls == kRange) {
    request.type = RequestType::kRange;
    request.epsilon = stream.range_eps;
  } else {
    request.type = RequestType::kJoin;
    request.epsilon = stream.join_eps;
  }
  return request;
}

// "" when the answer is right.
std::string Check(const TrafficContext& ctx, Cls cls, const Request& request,
                  const Response& response, uint64_t* last_update_seq) {
  switch (cls) {
    case kKnn:
      return ctx.oracle != nullptr
                 ? ctx.oracle->CheckKnn(request.node, request.k,
                                        request.knn_type, response)
                 : CheckKnnShape(ctx.num_objects, request.k, request.knn_type,
                                 response);
    case kRange:
      return ctx.oracle != nullptr
                 ? ctx.oracle->CheckRange(request.node, request.epsilon,
                                          response)
                 : CheckRangeShape(ctx.num_objects, response);
    case kJoin:
      return CheckJoin(*ctx.join_truth, response);
    default:
      if (response.status != ResponseStatus::kOk) {
        return std::string("update status ") +
               dsig::serve::ResponseStatusName(response.status) + ": " +
               response.text;
      }
      if (response.update_seq <= *last_update_seq) {
        return "update_seq did not increase";
      }
      *last_update_seq = response.update_seq;
      return "";
  }
}

// Sends one request and checks the answer; returns true when it is right.
// *done_ns is when the decoded answer arrived, before the check.
bool CallAndCheck(const TrafficContext& ctx, dsig::serve::ServeClient& client,
                  Cls cls, const Request& request, uint64_t* last_update_seq,
                  Traffic* out, Response* answer, uint64_t* done_ns) {
  ++out->attempted;
  dsig::StatusOr<Response> response = client.Call(request);
  *done_ns = NowNs();
  if (!response.ok()) {
    ++out->transport_errors;
    (void)client.Connect(ctx.port, kCallTimeoutMs);
    return false;
  }
  const std::string why = Check(ctx, cls, request, *response, last_update_seq);
  *answer = std::move(response).value();
  if (why.empty()) return true;
  ReportMismatch(request, why);
  if (answer->status != ResponseStatus::kOk ||
      answer->degradation != dsig::serve::Degradation::kNone) {
    ++out->rejected;
  } else {
    ++out->mismatches;
  }
  return false;
}

// One connection issuing `stream` from start_ns to the end of out's
// window; requests due before the window are warm-up (checked, not
// measured). An open-loop request is timed from its scheduled arrival, a
// closed-loop one from its send.
void RunSender(const TrafficContext& ctx, const Stream& stream,
               uint64_t rng_seed, uint64_t start_ns, Traffic* out) {
  const uint64_t window_ns = out->window_start_ns;
  const uint64_t end_ns = out->window_end_ns;
  constexpr size_t kSamplesPerConnection = 256;
  Random rng(rng_seed);
  dsig::serve::ServeClient client;
  if (!client.Connect(ctx.port, kCallTimeoutMs).ok()) {
    ++out->attempted;
    ++out->transport_errors;
    return;
  }
  const bool open_loop = stream.rate > 0;
  double t_s = 0;
  uint64_t last_update_seq = 0;
  uint64_t id = 0;
  for (;;) {
    uint64_t due_ns;
    if (open_loop) {
      t_s += -std::log(1.0 - rng.NextDouble()) / stream.rate;
      due_ns = start_ns + static_cast<uint64_t>(t_s * 1e9);
      if (due_ns >= end_ns) break;
      const uint64_t now = NowNs();
      if (due_ns > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
        // The connection sat idle until this send was due, so any delay now
        // is the generator's own wake-up lateness.
        if (due_ns >= window_ns) {
          out->late_ms.push_back(static_cast<double>(NowNs() - due_ns) * 1e-6);
        }
      }
    } else {
      due_ns = NowNs();
      if (due_ns >= end_ns) break;
    }
    Cls cls;
    const Request request = MakeRequest(ctx, stream, rng, ++id, &cls);
    const bool in_window = due_ns >= window_ns;
    const uint64_t sent_ns = NowNs();
    Response response;
    uint64_t done_ns;
    const bool ok = CallAndCheck(ctx, client, cls, request, &last_update_seq,
                                 out, &response, &done_ns);
    if (!in_window) continue;
    out->latency_ms[cls].push_back(
        ok ? static_cast<float>(static_cast<double>(done_ns - due_ns) * 1e-6)
           : kFailedLatencyMs);
    if (!ok) continue;
    ++out->completed;
    if (cls == kUpdate) {
      out->rows_rewritten.push_back(
          static_cast<double>(response.rows_rewritten));
    }
    if (ctx.keep_trace_ids) {
      out->calls.push_back(
          {request.trace_id,
           static_cast<float>(static_cast<double>(done_ns - sent_ns) * 1e-3),
           cls});
    }
    if (out->sample_requests.size() < kSamplesPerConnection) {
      out->sample_requests.push_back(request);
      out->sample_responses.push_back(std::move(response));
    }
  }
}

Traffic RunTraffic(const TrafficContext& ctx, uint64_t rng_seed,
                   double warmup_s, double window_s) {
  Traffic total;
  std::mutex total_mu;
  // A moment for the senders to connect before the schedule starts.
  const uint64_t start_ns = NowNs() + 20 * 1000 * 1000;
  total.window_start_ns = start_ns + static_cast<uint64_t>(warmup_s * 1e9);
  total.window_end_ns =
      total.window_start_ns + static_cast<uint64_t>(window_s * 1e9);
  std::vector<std::thread> senders;
  for (int c = 0; c < kConnections; ++c) {
    senders.emplace_back([&, c, window_start_ns = total.window_start_ns,
                          window_end_ns = total.window_end_ns] {
      Traffic mine;
      mine.window_start_ns = window_start_ns;
      mine.window_end_ns = window_end_ns;
      const uint64_t now = NowNs();
      if (start_ns > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(start_ns - now));
      }
      RunSender(ctx, ctx.workload->streams[c],
                rng_seed * 7919 + static_cast<uint64_t>(c), start_ns, &mine);
      std::lock_guard<std::mutex> lock(total_mu);
      total.Merge(std::move(mine));
    });
  }
  for (std::thread& t : senders) t.join();
  return total;
}

// Closed-loop kNN and range reads checked exactly against `ctx.oracle`:
// churn's final check once writes have stopped.
void RunProbes(const TrafficContext& ctx, uint64_t rng_seed, int count,
               Traffic* out) {
  Stream probe = ctx.workload->streams[0];
  probe.rate = 0;
  probe.mix[kKnn] = probe.mix[kRange] = 0.5;
  dsig::serve::ServeClient client;
  if (!client.Connect(ctx.port, kCallTimeoutMs).ok()) {
    ++out->attempted;
    ++out->transport_errors;
    return;
  }
  Random rng(rng_seed);
  uint64_t unused_seq = 0;
  for (int i = 0; i < count; ++i) {
    Cls cls;
    const Request request = MakeRequest(ctx, probe, rng, i + 1, &cls);
    Response response;
    uint64_t done_ns;
    CallAndCheck(ctx, client, cls, request, &unused_seq, out, &response,
                 &done_ns);
  }
}

// ---------------------------------------------------------------------------
// Server trace lines: the slow-query log, with every request breaching.

constexpr const char* kOpNames[] = {
    "row_reads",        "entry_reads",     "backtrack_steps", "resolves",
    "decode_fallbacks", "label_distances", "label_demotions"};
constexpr int kNumOps = static_cast<int>(std::size(kOpNames));

int OpIndex(std::string_view name) {
  return static_cast<int>(
      std::find(std::begin(kOpNames), std::end(kOpNames), name) -
      std::begin(kOpNames));
}

struct ServerSpan {
  Cls cls = kKnn;
  double total_ms = 0;
  double queue_wait_ms = 0;
  double phases_ms[dsig::obs::kNumPhases] = {};
  double ops[kNumOps] = {};  // indexed like kOpNames
};

// The value after `"key": ` in one line; 0 when absent. Every key the
// server writes in a trace line is unique within the line.
double NumberField(const std::string& line, const std::string& key) {
  const size_t at = line.find("\"" + key + "\": ");
  return at == std::string::npos
             ? 0
             : std::strtod(line.c_str() + at + key.size() + 4, nullptr);
}

std::string StringField(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  const size_t begin = at + needle.size();
  const size_t end = line.find('"', begin);
  return end == std::string::npos ? "" : line.substr(begin, end - begin);
}

std::unordered_map<uint64_t, ServerSpan> ParseTraceLines(const std::string&
                                                             text) {
  std::unordered_map<uint64_t, ServerSpan> spans;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    uint64_t trace_id = 0;
    if (!dsig::ParseHexId(StringField(line, "trace_id"), &trace_id)) continue;
    const std::string cls = StringField(line, "class");
    const auto known = std::find_if(
        std::begin(kClsName), std::end(kClsName),
        [&](const char* name) { return cls == name; });
    if (known == std::end(kClsName)) continue;
    ServerSpan span;
    span.cls = static_cast<Cls>(known - std::begin(kClsName));
    span.total_ms = NumberField(line, "total_ms");
    span.queue_wait_ms = NumberField(line, "queue_wait_ms");
    for (int p = 0; p < dsig::obs::kNumPhases; ++p) {
      span.phases_ms[p] = NumberField(
          line, dsig::obs::PhaseName(static_cast<dsig::obs::Phase>(p)));
    }
    for (int i = 0; i < kNumOps; ++i) {
      span.ops[i] = NumberField(line, kOpNames[i]);
    }
    spans[trace_id] = std::move(span);
  }
  return spans;
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, std::isfinite(value) ? value : kFailedLatencyMs,
                        unit});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Registry counters whose deltas over the traced window feed per-layer
// metrics.
std::map<std::string, double> ReadCounters() {
  std::map<std::string, double> out;
  for (const char* name :
       {"serve.query.shed", "serve.update.shed", "serve.query.queue_timeout",
        "serve.coalesce.leaders", "serve.coalesce.followers", "rowcache.hits",
        "rowcache.misses", "rowcache.evictions", "update.entries_changed",
        "wal.checkpoints"}) {
    out[name] = static_cast<double>(
        dsig::obs::MetricsRegistry::Global().GetCounter(name)->Value());
  }
  return out;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024;  // kB -> MiB
    }
  }
  return 0;
}

// Mean wall time of fn(i) over `reps` passes of i in [0, n), in ns.
template <typename Fn>
double NsPerCall(size_t n, int reps, Fn&& fn) {
  if (n == 0) return 0;
  const uint64_t start = NowNs();
  for (int r = 0; r < reps; ++r) {
    for (size_t i = 0; i < n; ++i) fn(i);
  }
  return static_cast<double>(NowNs() - start) /
         (static_cast<double>(n) * reps);
}

// Class latencies of the untraced window.
void AddLatencyMetrics(const Traffic& t, MetricSet* m) {
  for (int c = 0; c < kNumCls; ++c) {
    const std::string name = kClsName[c];
    const std::vector<double> ms = t.Latencies({static_cast<Cls>(c)});
    m->Add(name + "_p50_ms", Percentile(ms, 0.50), "ms");
    m->Add(name + "_p90_ms", Percentile(ms, 0.90), "ms");
    m->Add(name + "_p99_ms", Percentile(ms, 0.99), "ms");
  }
}

// Per-layer metrics: the traced window joined to its client calls, registry
// deltas, and replays of the window's requests through the layers' public
// functions.
void AddLayerMetrics(Deployment* d, const Traffic& untraced,
                     const Traffic& traced,
                     const std::unordered_map<uint64_t, ServerSpan>& spans,
                     const std::map<std::string, double>& before,
                     const std::map<std::string, double>& after,
                     double ping_rtt_p50_us, double idle_ping_rtt_p50_us,
                     MetricSet* m) {
  const auto delta = [&](const char* name) {
    return after.at(name) - before.at(name);
  };
  constexpr int kReps = 20;

  std::vector<double> residual_us;
  std::vector<double> queue_wait_ms;
  std::vector<const ServerSpan*> by_cls[kNumCls];
  for (const TracedCall& call : traced.calls) {
    const auto it = spans.find(call.trace_id);
    if (it == spans.end()) continue;
    const ServerSpan& s = it->second;
    by_cls[call.cls].push_back(&s);
    queue_wait_ms.push_back(s.queue_wait_ms);
    residual_us.push_back(call.rtt_us - s.total_ms * 1e3);
  }
  size_t joined = 0;
  for (const auto& spans_of_cls : by_cls) joined += spans_of_cls.size();
  m->Add("trace.joined_frac",
         Ratio(static_cast<double>(joined),
               static_cast<double>(traced.calls.size())),
         "fraction");

  // Socket I/O and the DSRV codec.
  m->Add("net.ping_rtt_p50_us", ping_rtt_p50_us, "us");
  m->Add("net.idle_ping_rtt_p50_us", idle_ping_rtt_p50_us, "us");
  const std::vector<Request>& reqs = traced.sample_requests;
  const std::vector<Response>& resps = traced.sample_responses;
  std::vector<std::vector<uint8_t>> req_frames(reqs.size());
  std::vector<std::vector<uint8_t>> resp_frames(resps.size());
  const auto payload = [](const std::vector<uint8_t>& frame) {
    return std::make_pair(frame.data() + dsig::serve::kFrameHeaderBytes,
                          frame.size() - dsig::serve::kFrameHeaderBytes);
  };
  const double encode_request_ns =
      NsPerCall(reqs.size(), kReps, [&](size_t i) {
        req_frames[i].clear();
        dsig::serve::EncodeRequest(reqs[i], &req_frames[i]);
      });
  const double decode_request_ns =
      NsPerCall(reqs.size(), kReps, [&](size_t i) {
        const auto [data, size] = payload(req_frames[i]);
        (void)dsig::serve::DecodeRequest(data, size);
      });
  const double encode_response_ns =
      NsPerCall(resps.size(), kReps, [&](size_t i) {
        resp_frames[i].clear();
        dsig::serve::EncodeResponse(resps[i], &resp_frames[i]);
      });
  const double decode_response_ns =
      NsPerCall(resps.size(), kReps, [&](size_t i) {
        const auto [data, size] = payload(resp_frames[i]);
        (void)dsig::serve::DecodeResponse(data, size);
      });
  m->Add("protocol.encode_request_ns", encode_request_ns, "ns");
  m->Add("protocol.decode_request_ns", decode_request_ns, "ns");
  m->Add("protocol.encode_response_ns", encode_response_ns, "ns");
  m->Add("protocol.decode_response_ns", decode_response_ns, "ns");
  std::vector<double> resp_bytes;
  for (const auto& f : resp_frames) {
    resp_bytes.push_back(static_cast<double>(f.size()));
  }
  m->Add("protocol.response_bytes_mean", Mean(resp_bytes), "bytes");
  m->Add("server.residual_p50_us", Percentile(residual_us, 0.5), "us");

  // Admission and coalescing.
  m->Add("admission.queue_wait_p90_ms", Percentile(queue_wait_ms, 0.9), "ms");
  m->Add("admission.shed",
         delta("serve.query.shed") + delta("serve.update.shed"), "count");
  m->Add("admission.queue_timeouts", delta("serve.query.queue_timeout"),
         "count");
  const double followers = delta("serve.coalesce.followers");
  m->Add("coalesce.follower_frac",
         Ratio(followers, followers + delta("serve.coalesce.leaders")),
         "fraction");

  // Query phases and op counts per class, averaged per request.
  using dsig::obs::Phase;
  double label_distances = 0;
  double label_demotions = 0;
  for (const int c : {kKnn, kRange, kJoin}) {
    const std::string name = kClsName[c];
    const double n = std::max<double>(1, by_cls[c].size());
    std::vector<double> server_ms;
    double phases[dsig::obs::kNumPhases] = {};
    double ops[kNumOps] = {};
    for (const ServerSpan* span : by_cls[c]) {
      server_ms.push_back(span->total_ms);
      for (int p = 0; p < dsig::obs::kNumPhases; ++p) {
        phases[p] += span->phases_ms[p];
      }
      for (int i = 0; i < kNumOps; ++i) ops[i] += span->ops[i];
    }
    const auto phase = [&](Phase p) { return phases[static_cast<int>(p)] / n; };
    m->Add(name + ".server_ms_p50", Percentile(server_ms, 0.5), "ms");
    m->Add(name + ".row_decode_ms", phase(Phase::kRowDecode), "ms");
    m->Add(name + ".resolve_ms", phase(Phase::kResolve), "ms");
    m->Add(name + ".backtrack_ms", phase(Phase::kBacktrack), "ms");
    m->Add(name + ".sort_ms", phase(Phase::kSort), "ms");
    m->Add(name + ".dijkstra_ms", phase(Phase::kDijkstraFallback), "ms");
    m->Add(name + ".other_ms", phase(Phase::kOther) + phase(Phase::kBufferIo),
           "ms");
    for (int i = 0; i < kNumOps; ++i) {
      // Range queries never ask for exact distances, so no label counts.
      if (c == kRange && std::string_view(kOpNames[i]).starts_with("label_")) {
        continue;
      }
      m->Add(name + "." + kOpNames[i], ops[i] / n, "count");
    }
    label_distances += ops[OpIndex("label_distances")];
    label_demotions += ops[OpIndex("label_demotions")];
  }
  m->Add("planner.label_share",
         Ratio(label_distances, label_distances + label_demotions),
         "fraction");

  // Replays over the window's query nodes, each paired with a random object.
  const SignatureIndex& index = *d->index;
  std::vector<dsig::NodeId> nodes;
  for (const Request& r : reqs) {
    if (r.type != RequestType::kUpdate) nodes.push_back(r.node);
  }
  Random rng(0x5eed);
  std::vector<uint32_t> objects(nodes.size());
  for (uint32_t& o : objects) {
    o = static_cast<uint32_t>(rng.NextUint64(index.num_objects()));
  }
  const dsig::HubLabels* labels = index.hub_labels();
  m->Add("labels.distance_ns",
         labels == nullptr || !labels->ready()
             ? 0
             : NsPerCall(nodes.size(), kReps, [&](size_t i) {
                 (void)labels->Distance(nodes[i],
                                        index.object_node(objects[i]));
               }),
         "ns");
  dsig::RowStage stage;
  m->Add("row.read_staged_us", NsPerCall(nodes.size(), 1, [&](size_t i) {
           index.ReadRowStaged(nodes[i], &stage);
         }) * 1e-3, "us");
  m->Add("row.read_entry_us", NsPerCall(nodes.size(), 1, [&](size_t i) {
           (void)index.ReadEntry(nodes[i], objects[i]);
         }) * 1e-3, "us");
  const double hits = delta("rowcache.hits");
  m->Add("rowcache.hit_rate", Ratio(hits, hits + delta("rowcache.misses")),
         "fraction");
  m->Add("rowcache.evictions", delta("rowcache.evictions"), "count");
  {
    // The active SIMD level's band scan, as the range filter runs it, over
    // the category lanes of the window's rows.
    const size_t width = index.num_objects();
    const size_t rows = std::min<size_t>(nodes.size(), 512);
    std::vector<uint8_t> lanes;
    for (size_t i = 0; i < rows; ++i) {
      index.ReadRowStaged(nodes[i], &stage);
      lanes.insert(lanes.end(), stage.categories(),
                   stage.categories() + stage.size());
    }
    std::vector<uint32_t> out(width);
    const dsig::simd::KernelTable& kernels = dsig::simd::Kernels();
    const int hi = index.partition().CategoryOf(Midpoint(index, 1)) + 1;
    m->Add("simd.category_scan_ns_per_row",
           NsPerCall(rows, kReps * 10, [&](size_t i) {
             kernels.extract_in_range(lanes.data() + i * width, width, 0, hi,
                                      out.data());
           }),
           "ns");
  }

  // Updates.
  std::vector<double> update_server_ms;
  for (const ServerSpan* s : by_cls[kUpdate]) {
    update_server_ms.push_back(s->total_ms);
  }
  m->Add("update.server_ms_p50", Percentile(update_server_ms, 0.5), "ms");
  m->Add("update.server_ms_p90", Percentile(update_server_ms, 0.9), "ms");
  m->Add("update.rows_rewritten_mean", Mean(traced.rows_rewritten), "count");
  m->Add("update.entries_changed_mean",
         Ratio(delta("update.entries_changed"),
               static_cast<double>(traced.rows_rewritten.size())),
         "count");
  m->Add("update.checkpoints", delta("wal.checkpoints"), "count");
  const uint64_t ckpt_start = NowNs();
  const bool ckpt_ok = d->updater->Checkpoint().ok();
  m->Add("ckpt.save_ms", ckpt_ok ? SecondsSince(ckpt_start) * 1e3 : 0, "ms");
  m->Add("labels.stale", labels != nullptr && labels->stale() ? 1 : 0, "flag");
  const std::vector<double> reads = untraced.ReadLatencies();
  m->Add("churn.reads_over_50ms_frac",
         Ratio(static_cast<double>(std::count_if(
                   reads.begin(), reads.end(),
                   [](double ms) { return ms > 50; })),
               static_cast<double>(reads.size())),
         "fraction");

  // Space.
  m->Add("mem.index_bytes", static_cast<double>(index.IndexBytes()), "bytes");
  m->Add("mem.labels_bytes",
         labels == nullptr ? 0 : static_cast<double>(labels->stats().bytes),
         "bytes");
  m->Add("mem.rowcache_bytes",
         dsig::obs::MetricsRegistry::Global()
             .GetGauge("rowcache.bytes")
             ->Value(),
         "bytes");
  m->Add("mem.retired_bytes", static_cast<double>(index.retired_row_bytes()),
         "bytes");

  // Harness validity.
  m->Add("loadgen.late_p99_ms", Percentile(untraced.late_ms, 0.99), "ms");
  m->Add("trace.overhead_pct",
         100 * (Ratio(Percentile(traced.ReadLatencies(), 0.5),
                      Percentile(untraced.ReadLatencies(), 0.5)) -
                1),
         "%");
}

// ---------------------------------------------------------------------------
// The run

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string json_path;
  std::string state_dir;
  size_t nodes = 0;
};

void WriteJson(const Args& args, const Deployment& d,
               const std::vector<SetupTimes>& setups, const Traffic& all,
               const MetricSet& m) {
  dsig::obs::JsonWriter w;
  w.BeginObject();
  w.Field("workload", args.workload);
  w.Key("seed").Uint(args.seed);
  w.Key("trace").Bool(args.trace);
  w.Key("seconds").Raw(Num(args.seconds));
  w.Key("correct").Bool(all.mismatches == 0);
  w.Key("attempted").Uint(all.attempted);
  w.Key("failed").Uint(all.failed());
  w.Key("params").BeginObject();
  w.Key("nodes").Uint(d.graph->num_nodes());
  w.Key("objects").Uint(d.index->num_objects());
  w.Key("setup_runs_s").BeginArray();
  for (const SetupTimes& t : setups) w.Raw(Num(t.total_s));
  w.EndArray();
  w.Key("warmup_s").Raw(Num(kWarmupS));
  w.Field("simd.level", dsig::simd::SimdLevelName(dsig::simd::ActiveLevel()));
  w.EndObject();
  w.Key("metrics").BeginObject();
  for (const Metric& metric : m.metrics()) {
    w.Key(metric.name).BeginObject();
    w.Key("value").Raw(Num(metric.value));
    w.Field("unit", metric.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::ofstream out(args.json_path);
  out << w.str() << "\n";
}

int Run(const Args& args) {
  // Set up kSetups times and keep the last deployment; setup_s is the
  // median, so neither the first set-up's cold start nor one set-up
  // disturbed from outside sets it. Every set-up's total goes into the JSON
  // params, so the median can be checked against the first alone.
  std::vector<SetupTimes> times;
  Deployment d;
  for (int i = 0; i < kSetups; ++i) {
    TearDown(&d);
    const dsig::Status status =
        SetUp(args.nodes, kDeploymentSeed, args.state_dir, &d);
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      return 1;
    }
    times.push_back(d.times);
  }
  const auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : times) v.push_back(t.*field);
    return Median(v);
  };

  const Workload workload = MakeWorkload(args.workload, *d.index);
  auto oracle = std::make_unique<Oracle>(*d.graph, d.index->objects());
  const PairList join_truth = oracle->JoinPairs(Midpoint(*d.index, 1));

  std::vector<dsig::NodeId> permutation(d.graph->num_nodes());
  for (size_t i = 0; i < permutation.size(); ++i) {
    permutation[i] = static_cast<dsig::NodeId>(i);
  }
  Random perm_rng(kDeploymentSeed * 31 + 7);
  for (size_t i = permutation.size(); i > 1; --i) {
    std::swap(permutation[i - 1], permutation[perm_rng.NextUint64(i)]);
  }
  const Zipf zipf(permutation.size(), 1.1);

  TrafficContext ctx;
  ctx.port = d.server->port();
  ctx.workload = &workload;
  ctx.oracle = workload.read_only ? oracle.get() : nullptr;
  ctx.join_truth = &join_truth;
  ctx.num_nodes = d.graph->num_nodes();
  ctx.num_objects = d.index->num_objects();
  ctx.num_edge_slots = d.graph->num_edge_slots();
  ctx.permutation = &permutation;
  ctx.zipf = workload.zipf ? &zipf : nullptr;

  // Ping round trips, the bare front-end cost: back to back, and (traced
  // runs only) each after 5 ms idle, which adds waking the sleeping server
  // and client threads — what a request pays on a lightly loaded
  // connection.
  std::vector<double> ping_us;
  std::vector<double> idle_ping_us;
  {
    dsig::serve::ServeClient client;
    Request ping;
    ping.type = RequestType::kPing;
    if (!client.Connect(ctx.port, kCallTimeoutMs).ok()) return 1;
    const int idle_pings = args.trace ? 200 : 0;
    for (int i = 0; i < 2000 + idle_pings; ++i) {
      const bool idle = i >= 2000;
      if (idle) std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ping.id = static_cast<uint64_t>(i + 1);
      const uint64_t t = NowNs();
      if (!client.Call(ping).ok()) {
        std::fprintf(stderr, "ping failed\n");
        return 1;
      }
      (idle ? idle_ping_us : ping_us)
          .push_back(static_cast<double>(NowNs() - t) * 1e-3);
    }
  }

  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  Traffic untraced = RunTraffic(ctx, args.seed * 2, kWarmupS, untraced_s);

  Traffic traced;
  std::unordered_map<uint64_t, ServerSpan> spans;
  std::map<std::string, double> counters_before;
  std::map<std::string, double> counters_after;
  if (args.trace) {
    char* buffer = nullptr;
    size_t size = 0;
    std::FILE* sink = open_memstream(&buffer, &size);
    if (sink == nullptr || !StartServer(&d, TracedServerOptions(sink)).ok()) {
      std::fprintf(stderr, "cannot start the traced server\n");
      return 1;
    }
    ctx.port = d.server->port();
    ctx.keep_trace_ids = true;
    counters_before = ReadCounters();
    traced = RunTraffic(ctx, args.seed * 2 + 1, 0, args.seconds - untraced_s);
    counters_after = ReadCounters();
    if (!StartServer(&d, DefaultServerOptions()).ok()) return 1;
    ctx.port = d.server->port();
    std::fclose(sink);
    spans = ParseTraceLines(std::string(buffer, size));
    std::free(buffer);
  }

  Traffic all;  // counts only
  all.attempted = untraced.attempted + traced.attempted;
  all.transport_errors = untraced.transport_errors + traced.transport_errors;
  all.rejected = untraced.rejected + traced.rejected;
  all.mismatches = untraced.mismatches + traced.mismatches;
  if (!workload.read_only) {
    // Writes have stopped with their sender. Check reads exactly against
    // the network as the updates left it.
    oracle = std::make_unique<Oracle>(*d.graph, d.index->objects());
    ctx.oracle = oracle.get();
    RunProbes(ctx, args.seed * 2 + 2, 1000, &all);
  }

  MetricSet m;
  m.Add("setup_s", median_of(&SetupTimes::total_s), "s");
  AddLatencyMetrics(untraced, &m);
  m.Add("throughput_rps", untraced.Throughput(), "req/s");
  m.Add("index_mb", static_cast<double>(d.checkpoint_bytes) / (1 << 20), "MiB");
  m.Add("rss_mb", PeakRssMb(), "MiB");
  m.Add("failed_frac",
        Ratio(static_cast<double>(all.failed()),
              static_cast<double>(all.attempted)),
        "fraction");
  m.Add("setup.graph_s", median_of(&SetupTimes::graph_s), "s");
  m.Add("setup.index_s", median_of(&SetupTimes::index_s), "s");
  m.Add("setup.labels_s", median_of(&SetupTimes::labels_s), "s");
  m.Add("setup.durable_init_s", median_of(&SetupTimes::durable_init_s), "s");
  m.Add("setup.server_start_s", median_of(&SetupTimes::server_start_s), "s");
  if (args.trace) {
    AddLayerMetrics(&d, untraced, traced, spans, counters_before,
                    counters_after, Percentile(ping_us, 0.5),
                    Percentile(idle_ping_us, 0.5), &m);
  }

  for (const Metric& metric : m.metrics()) {
    std::printf("METRIC workload=%s name=%s value=%s unit=%s\n",
                args.workload.c_str(), metric.name.c_str(),
                Num(metric.value).c_str(), metric.unit.c_str());
  }
  if (!args.json_path.empty()) WriteJson(args, d, times, all, m);
  if (!untraced.late_ms.empty() && Percentile(untraced.late_ms, 0.99) > 5) {
    std::fprintf(stderr,
                 "WARNING: sender wake-up lateness p99 above 5 ms; the load "
                 "generator could not keep its schedule, so this run is "
                 "not valid\n");
  }

  TearDown(&d);
  std::error_code ec;
  std::filesystem::remove_all(args.state_dir, ec);
  if (all.mismatches > 0) {
    std::fprintf(stderr, "FAILED: %llu answers differ from ground truth\n",
                 static_cast<unsigned long long>(all.mismatches));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  const dsig::Flags flags(argc, argv);
  servebench::Args args;
  args.workload = flags.GetString("workload", "");
  args.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  args.seconds = flags.GetDouble("seconds", 20);
  args.trace = flags.GetInt("trace", 0) != 0;
  args.json_path = flags.GetString("json", "");
  args.state_dir = flags.GetString("state-dir", "bench_serve_state");
  args.nodes = static_cast<size_t>(flags.GetInt(
      "nodes", static_cast<int64_t>(servebench::DefaultNodes(args.workload))));
  if (servebench::DefaultNodes(args.workload) == 0 || args.seconds <= 0 ||
      args.nodes < 100) {
    std::fprintf(stderr,
                 "usage: bench_serve --workload=hot_closed|scan_open|churn "
                 "--seed=N [--seconds=20] [--trace=0|1] [--json=FILE]\n");
    return 2;
  }
  return servebench::Run(args);
}
