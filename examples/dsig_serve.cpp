// dsig_serve: the fault-tolerant serving front-end as a process.
//
// Serves kNN / range / join / update over the DSRV socket protocol with
// admission control, deadlines, and graceful degradation (see
// ARCHITECTURE.md, "Serving, overload & degradation"). The durable
// deployment lives in --dir: a fresh directory gets a generated city +
// Initialize; a directory with a wal.log is recovered (the checkpoint its
// header names + the committed WAL tail), which is what makes kill -9
// survivable.
//
//   $ ./dsig_serve --dir=/tmp/dsig [--nodes=5000] [--seed=42] [--port=0]
//                  [--port-file=PATH] [--checkpoint-interval=64]
//                  [--max-inflight=8] [--max-queue=32]
//                  [--degrade-fraction=0.5] [--default-deadline-ms=0]
//                  [--max-runtime-s=300]
//                  [--tenants=name:weight:rate_qps,name:weight:rate_qps,...]
//                  [--tenant-slo-budget-ms=100]
//                  [--read-timeout-ms=5000] [--write-timeout-ms=5000]
//                  [--idle-timeout-ms=0] [--max-connections=0]
//                  [--slo-budget-ms=50] [--slo-join-budget-ms=250]
//                  [--slo-update-budget-ms=100] [--slo-availability=0.99]
//                  [--slo-fast-s=10] [--slo-slow-s=60] [--slo-slot-ms=1000]
//                  [--slow-query-log=PATH] [--slow-trace-qps=20]
//                  [--trace-sample-period=16]
//
// SLO flags declare per-request-class objectives (latency budget +
// availability) evaluated with fast/slow burn-rate windows; `dsig_tool slo`
// reads the resulting health report. --slow-query-log appends one JSON
// trace line (queue wait + execution phases) per SLO-breaching request.
//
// --tenants declares fair-share principals: wire tenant id = position in
// the list, weight = DWRR slot share under contention, rate_qps = token-
// bucket cap (0 = unlimited). Unknown wire ids fold into the first tenant.
// Each tenant gets its own serve.tenant.<name>.* admission metrics and a
// "tenant_<name>" SLO evaluated at --tenant-slo-budget-ms. Identical hot
// queries always coalesce (single flight); the timeout/connection flags are
// the hostile-client hardening knobs (serve/net.h).
//
// --degrade-fraction sets the tenant queue pressure at which queries answer
// from categories alone, tagged "overload" (<= 0 degrades every query).
// Clients speak the one DSRV frame layout (serve/protocol.h): a server and
// its clients (dsig_loadgen, dsig_tool) must come from the same commit.
//
// Prints one "SERVE_READY port=... nodes=... objects=..." line when
// accepting. SIGTERM / SIGINT drain gracefully: stop accepting, fail queued
// work with SHUTTING_DOWN, finish in-flight requests, write a final
// checkpoint, exit 0.
//
//   $ ./dsig_serve --recover-check --dir=/tmp/dsig
//
// recovers (with full index verification) and prints "RECOVER_OK
// last_seq=N ..." or exits 1 — the chaos harness's oracle that no
// acknowledged update was lost.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "core/signature_builder.h"
#include "graph/graph_generator.h"
#include "io/durable_index.h"
#include "obs/simd_metrics.h"
#include "serve/server.h"
#include "util/flags.h"
#include "util/simd/simd.h"
#include "workload/dataset_generator.h"

namespace {

volatile std::sig_atomic_t g_signal = 0;
void HandleSignal(int sig) { g_signal = sig; }

}  // namespace

int main(int argc, char** argv) {
  using namespace dsig;

  // Installed before the (potentially slow) build/recover phase: a SIGTERM
  // at any point drains through the checkpoint epilogue instead of dying
  // with default disposition.
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  const Flags flags(argc, argv);
  const std::string dir = flags.GetString(
      "dir", (std::filesystem::temp_directory_path() / "dsig_serve").string());

  DurableOptions durable;
  durable.checkpoint_interval =
      static_cast<uint64_t>(flags.GetInt("checkpoint-interval", 64));
  // Transient checkpoint I/O errors retry instead of surfacing (satellite:
  // bounded retry with backoff + jitter; io/durable_index.h).
  durable.ckpt_retries = static_cast<int>(flags.GetInt("ckpt-retries", 2));

  if (flags.GetBool("recover-check", false)) {
    RecoverOptions verify;
    verify.verify = true;
    auto recovered = DurableUpdater::Recover(dir, durable, verify);
    if (!recovered.ok()) {
      std::fprintf(stderr, "RECOVER_FAIL %s\n",
                   recovered.status().ToString().c_str());
      return 1;
    }
    std::printf("RECOVER_OK last_seq=%llu checkpoint_seq=%llu replayed=%llu\n",
                static_cast<unsigned long long>(
                    recovered->updater->next_seq() - 1),
                static_cast<unsigned long long>(
                    recovered->updater->checkpoint_seq()),
                static_cast<unsigned long long>(recovered->replayed_records));
    return 0;
  }

  // Bring up the deployment: recover an existing directory, else generate
  // and initialize a fresh one.
  std::unique_ptr<RoadNetwork> owned_graph;
  std::unique_ptr<SignatureIndex> owned_index;
  std::unique_ptr<DurableUpdater> updater;
  if (std::filesystem::exists(DurableUpdater::WalPath(dir))) {
    auto recovered = DurableUpdater::Recover(dir, durable);
    if (!recovered.ok()) {
      std::fprintf(stderr, "cannot recover %s: %s\n", dir.c_str(),
                   recovered.status().ToString().c_str());
      return 1;
    }
    owned_graph = std::move(recovered->graph);
    owned_index = std::move(recovered->index);
    updater = std::move(recovered->updater);
    std::printf("recovered %s: checkpoint seq %llu + %llu replayed records\n",
                dir.c_str(),
                static_cast<unsigned long long>(updater->checkpoint_seq()),
                static_cast<unsigned long long>(recovered->replayed_records));
  } else {
    std::filesystem::create_directories(dir);
    const size_t nodes = static_cast<size_t>(flags.GetInt("nodes", 5000));
    const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    const double density = flags.GetDouble("density", 0.005);
    owned_graph = std::make_unique<RoadNetwork>(
        MakeRandomPlanar({.num_nodes = nodes, .seed = seed}));
    const std::vector<NodeId> objects =
        UniformDataset(*owned_graph, density, seed + 1);
    // keep_forest: the updater needs the per-object spanning trees.
    owned_index = BuildSignatureIndex(*owned_graph, objects,
                                      {.t = 10, .c = 2.718281828,
                                       .keep_forest = true});
    auto initialized = DurableUpdater::Initialize(dir, owned_graph.get(),
                                                  owned_index.get(), durable);
    if (!initialized.ok()) {
      std::fprintf(stderr, "cannot initialize %s: %s\n", dir.c_str(),
                   initialized.status().ToString().c_str());
      return 1;
    }
    updater = std::move(initialized).value();
  }

  serve::ServerOptions options;
  options.port = static_cast<uint16_t>(flags.GetInt("port", 0));
  options.admission.query.max_inflight =
      static_cast<size_t>(flags.GetInt("max-inflight", 8));
  options.admission.query.max_queue =
      static_cast<size_t>(flags.GetInt("max-queue", 32));
  options.admission.update.max_queue =
      static_cast<size_t>(flags.GetInt("update-queue", 64));
  options.admission.retry_after_base_ms =
      flags.GetDouble("retry-after-base-ms", 25);
  options.degrade_queue_fraction = flags.GetDouble("degrade-fraction", 0.5);
  options.default_deadline_ms = flags.GetDouble("default-deadline-ms", 0);

  // Fair-share tenants: "name:weight:rate_qps,..." — wire id = position.
  const std::string tenant_spec = flags.GetString("tenants", "");
  if (!tenant_spec.empty()) {
    size_t start = 0;
    while (start <= tenant_spec.size()) {
      size_t comma = tenant_spec.find(',', start);
      if (comma == std::string::npos) comma = tenant_spec.size();
      const std::string entry = tenant_spec.substr(start, comma - start);
      start = comma + 1;
      if (entry.empty()) continue;
      serve::TenantConfig tenant;
      const size_t c1 = entry.find(':');
      const size_t c2 = c1 == std::string::npos ? c1 : entry.find(':', c1 + 1);
      tenant.name = entry.substr(0, c1);
      if (c1 != std::string::npos) {
        tenant.weight = std::atof(entry.substr(c1 + 1).c_str());
      }
      if (c2 != std::string::npos) {
        tenant.rate_qps = std::atof(entry.substr(c2 + 1).c_str());
      }
      if (tenant.name.empty() || tenant.weight <= 0) {
        std::fprintf(stderr, "bad --tenants entry \"%s\"\n", entry.c_str());
        return 1;
      }
      options.admission.tenants.push_back(std::move(tenant));
    }
  }
  const double tenant_budget_ms = flags.GetDouble("tenant-slo-budget-ms", 100);
  for (const auto& tenant : options.admission.tenants) {
    options.tenant_slo.push_back(
        {"tenant_" + tenant.name, tenant_budget_ms, 0.99});
  }

  // Hostile-client hardening.
  options.read_timeout_ms = flags.GetDouble("read-timeout-ms", 5000);
  options.write_timeout_ms = flags.GetDouble("write-timeout-ms", 5000);
  options.idle_timeout_ms = flags.GetDouble("idle-timeout-ms", 0);
  options.max_connections =
      static_cast<size_t>(flags.GetInt("max-connections", 0));

  // SLO objectives: one latency budget for the interactive classes (knn,
  // range), separate knobs for the join scan and updates.
  const double slo_budget_ms = flags.GetDouble("slo-budget-ms", 50);
  const double slo_availability = flags.GetDouble("slo-availability", 0.99);
  options.slo = {
      {"knn", slo_budget_ms, slo_availability},
      {"range", slo_budget_ms, slo_availability},
      {"join", flags.GetDouble("slo-join-budget-ms", 250), slo_availability},
      {"update", flags.GetDouble("slo-update-budget-ms", 100),
       slo_availability},
  };
  options.slo_windows.fast_ns = static_cast<uint64_t>(
      flags.GetDouble("slo-fast-s", 10) * 1e9);
  options.slo_windows.slow_ns = static_cast<uint64_t>(
      flags.GetDouble("slo-slow-s", 60) * 1e9);
  options.slo_windows.slot_ns = static_cast<uint64_t>(
      flags.GetDouble("slo-slot-ms", 1000) * 1e6);

  const std::string slow_log = flags.GetString("slow-query-log", "");
  std::FILE* slow_log_file = nullptr;
  if (!slow_log.empty()) {
    slow_log_file = std::fopen(slow_log.c_str(), "a");
    if (slow_log_file == nullptr) {
      std::fprintf(stderr, "cannot open slow-query log %s\n",
                   slow_log.c_str());
      return 1;
    }
    options.slow_trace_sink = slow_log_file;
    options.slow_trace_qps = flags.GetDouble("slow-trace-qps", 20);
  }
  options.trace_sample_period = static_cast<uint32_t>(
      flags.GetInt("trace-sample-period", 16));

  serve::DsigServer::Deployment deployment;
  deployment.graph = owned_graph.get();
  deployment.index = owned_index.get();
  deployment.updater = updater.get();
  auto server = serve::DsigServer::Start(deployment, options);
  if (!server.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }

  const std::string port_file = flags.GetString("port-file", "");
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "%u\n", (*server)->port());
      std::fclose(f);
    }
  }
  // Record the SIMD dispatch state before serving: the line makes every
  // server log self-describing, the gauge flows into /stats exports and
  // serve_report.json.
  obs::PublishSimdMetrics();
  std::printf("simd: %s\n", simd::CpuFeatureString().c_str());
  std::printf("SERVE_READY port=%u nodes=%zu objects=%zu tenants=%zu dir=%s\n",
              (*server)->port(), owned_graph->num_nodes(),
              owned_index->num_objects(),
              options.admission.tenants.empty()
                  ? size_t{1}
                  : options.admission.tenants.size(),
              dir.c_str());
  std::fflush(stdout);

  // Park until a signal (or the runtime cap, so a harness failure cannot
  // leak a server into CI forever).
  const double max_runtime_s = flags.GetDouble("max-runtime-s", 300);
  const auto started = std::chrono::steady_clock::now();
  while (g_signal == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (max_runtime_s > 0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
                .count() >= max_runtime_s) {
      break;
    }
  }

  // Graceful drain: refuse new work, finish in-flight work, then make
  // everything applied so far durable in one final checkpoint.
  std::printf("draining (signal %d)...\n", static_cast<int>(g_signal));
  (*server)->Stop();
  if (slow_log_file != nullptr) std::fclose(slow_log_file);
  const Status checkpointed = updater->Checkpoint();
  if (!checkpointed.ok()) {
    std::fprintf(stderr, "final checkpoint failed: %s\n",
                 checkpointed.ToString().c_str());
    return 1;
  }
  const Status closed = updater->Close();
  if (!closed.ok()) {
    std::fprintf(stderr, "close failed: %s\n", closed.ToString().c_str());
    return 1;
  }
  std::printf("SERVE_DRAINED checkpoint_seq=%llu\n",
              static_cast<unsigned long long>(updater->checkpoint_seq()));
  return 0;
}
