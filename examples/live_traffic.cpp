// Live traffic: crash-consistent incremental maintenance under edge updates
// (§5.4 + the WAL/checkpoint durability layer).
//
// A navigation service keeps a signature index over charging stations while
// road conditions change: congestion (weight increases), clearing
// (decreases), and a new bypass road (edge insertion). Every mutation is
// logged to a write-ahead log before the index is patched in place — only
// rows whose category or backtracking link changed are rewritten — with a
// periodic checkpoint truncating the log. kNN answers stay exact
// throughout, and --crash-after=N kills the in-memory state after N updates
// to demonstrate recovery: reload the checkpoint, replay the committed log
// tail, keep serving.
//
//   $ ./live_traffic [--nodes=5000] [--seed=42] [--dir=PATH]
//                    [--checkpoint-interval=25] [--crash-after=N]
#include <csignal>
#include <cstdio>
#include <filesystem>

#include "core/signature_builder.h"
#include "core/update.h"
#include "graph/graph_generator.h"
#include "io/durable_index.h"
#include "query/knn_query.h"
#include "util/flags.h"
#include "util/random.h"
#include "workload/dataset_generator.h"

namespace {

// Graceful shutdown: SIGTERM/SIGINT stop the update loop at the next safe
// point; main then writes a final checkpoint and exits 0, so an operator
// stopping the demo never loses applied updates to WAL replay on restart.
volatile std::sig_atomic_t g_signal = 0;
void HandleSignal(int sig) { g_signal = sig; }

void PrintKnn(const dsig::SignatureIndex& index, dsig::NodeId car,
              const char* moment) {
  const dsig::KnnResult r =
      SignatureKnnQuery(index, car, 3, dsig::KnnResultType::kType1);
  std::printf("%s — 3 nearest charging stations from node %u:\n", moment,
              car);
  for (size_t i = 0; i < r.objects.size(); ++i) {
    std::printf("  station #%u at node %u, %.0f units away\n", r.objects[i],
                index.object_node(r.objects[i]), r.distances[i]);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsig;

  // Installed before the (potentially slow) build phase: a signal during
  // startup makes the update loop exit at its first check and drain, rather
  // than killing the process with default disposition.
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  const Flags flags(argc, argv);
  const size_t nodes = static_cast<size_t>(flags.GetInt("nodes", 5000));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const int crash_after = static_cast<int>(flags.GetInt("crash-after", -1));
  const std::string dir = flags.GetString(
      "dir",
      (std::filesystem::temp_directory_path() / "live_traffic").string());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  RoadNetwork city = MakeRandomPlanar({.num_nodes = nodes, .seed = seed});
  const std::vector<NodeId> stations = UniformDataset(city, 0.005, seed + 1);
  std::printf("city: %zu junctions, %zu charging stations\n",
              city.num_nodes(), stations.size());

  // keep_forest = true retains the per-object spanning trees the updater
  // needs (the paper's "intermediate results during signature construction").
  auto index = BuildSignatureIndex(
      city, stations, {.t = 10, .c = 2.718281828, .keep_forest = true});

  // Every mutation goes WAL-first; a checkpoint every N updates bounds
  // recovery replay. Queries may run concurrently with updates; the index's
  // EpochGate lets each see a whole update or none of it.
  DurableOptions options;
  options.checkpoint_interval =
      static_cast<uint64_t>(flags.GetInt("checkpoint-interval", 25));
  auto live = DurableUpdater::Initialize(dir, &city, index.get(), options);
  if (!live.ok()) {
    std::fprintf(stderr, "cannot initialize %s: %s\n", dir.c_str(),
                 live.status().ToString().c_str());
    return 1;
  }
  std::printf("durable deployment in %s (checkpoint every %llu updates)\n\n",
              dir.c_str(),
              static_cast<unsigned long long>(options.checkpoint_interval));

  const NodeId car = static_cast<NodeId>(nodes / 3);
  PrintKnn(*index, car, "08:00 (free flow)");

  // Rush hour: congestion doubles the cost of random roads, then the city
  // opens a bypass next to the car. Each change is durable before it is
  // visible.
  Random rng(seed + 9);
  size_t rows = 0;
  int applied = 0;
  bool crashed = false;
  DurableUpdater::Recovered recovered;  // keeps post-crash state alive
  DurableUpdater* updater = live->get();
  SignatureIndex* serving = index.get();
  RoadNetwork* roads = &city;
  for (int i = 0; i < 30 && g_signal == 0; ++i) {
    if (crash_after >= 0 && applied == crash_after && !crashed) {
      // Crash: every in-memory structure is gone. Only the WAL and the
      // checkpoint pair its header names survive in `dir`.
      live->reset();
      index.reset();
      std::printf("\n!! crash after %d updates — recovering from %s\n",
                  applied, dir.c_str());
      RecoverOptions verify;
      verify.verify = true;
      auto rec = DurableUpdater::Recover(dir, options, verify);
      if (!rec.ok()) {
        std::fprintf(stderr, "recovery failed: %s\n",
                     rec.status().ToString().c_str());
        return 1;
      }
      recovered = std::move(rec).value();
      std::printf(
          "!! recovered: checkpoint seq %llu + %llu replayed records, "
          "index verified clean\n\n",
          static_cast<unsigned long long>(
              recovered.updater->checkpoint_seq()),
          static_cast<unsigned long long>(recovered.replayed_records));
      updater = recovered.updater.get();
      serving = recovered.index.get();
      roads = recovered.graph.get();
      crashed = true;
    }
    const EdgeId e =
        static_cast<EdgeId>(rng.NextUint64(roads->num_edge_slots()));
    if (roads->edge_removed(e)) continue;
    const auto stats =
        updater->SetEdgeWeight(e, roads->edge_weight(e) * 2);
    if (!stats.ok()) {
      std::fprintf(stderr, "update failed: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    rows += stats->rows_rewritten;
    ++applied;
  }
  if (g_signal != 0) {
    std::printf("\nsignal %d — draining: writing final checkpoint\n",
                static_cast<int>(g_signal));
    const Status checkpointed = updater->Checkpoint();
    if (!checkpointed.ok()) {
      std::fprintf(stderr, "final checkpoint failed: %s\n",
                   checkpointed.ToString().c_str());
      return 1;
    }
    std::printf("drained cleanly at checkpoint seq %llu\n",
                static_cast<unsigned long long>(updater->checkpoint_seq()));
    return 0;
  }

  std::printf("\n08:30 — %d roads congested; %zu signature rows patched "
              "(%.2f%% of the index)\n\n",
              applied, rows,
              100.0 * static_cast<double>(rows) /
                  static_cast<double>(roads->num_nodes() *
                                      static_cast<size_t>(applied)));
  PrintKnn(*serving, car, "08:30 (rush hour)");

  // The city opens a bypass next to the car.
  const NodeId other = (car + 17) % static_cast<NodeId>(roads->num_nodes());
  const auto bypass = updater->AddEdge(car, other, 1);
  if (!bypass.ok()) {
    std::fprintf(stderr, "update failed: %s\n",
                 bypass.status().ToString().c_str());
    return 1;
  }
  std::printf("\n09:00 — bypass %u-%u opened; %zu rows patched\n\n", car,
              other, bypass->rows_rewritten);
  PrintKnn(*serving, car, "09:00 (bypass open)");

  std::printf("\n%llu updates since the last checkpoint remain in the WAL\n",
              static_cast<unsigned long long>(
                  updater->records_since_checkpoint()));
  return 0;
}
