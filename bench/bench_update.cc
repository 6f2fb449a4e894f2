// E7 — update-cost ablation (paper §5.4 claims, no dedicated figure).
//
// Applies random edge-weight changes and edge insertions to a live signature
// index and reports how many spanning-tree entries and signature rows each
// update touches, versus the cost of rebuilding the index from scratch.
// Expected shape: updates touch a small fraction of rows (locality from the
// exponential categories + the spanning forest's parent edges, which name
// the objects whose trees use an edge), orders of magnitude cheaper than a
// rebuild.
//
// A second exhibit measures what durability costs: the same update stream
// applied in-place versus through DurableUpdater's WAL at each sync policy.
// Expected shape: buffered logging (sync=none or checkpoint-interval
// batching) stays within ~2x of in-place; fsync-per-record is dominated by
// the disk flush.
#include "bench/bench_common.h"

#include <filesystem>

#include "core/update.h"
#include "io/durable_index.h"
#include "util/random.h"

int main(int argc, char** argv) {
  using namespace dsig;
  using namespace dsig::bench;

  const Flags flags(argc, argv);
  if (!ApplyObsFlags(flags)) return 1;
  const size_t nodes = static_cast<size_t>(flags.GetInt("nodes", 10000));
  const size_t num_updates = static_cast<size_t>(flags.GetInt("updates", 60));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  BenchJson json(flags, "update");
  json.SetParam("nodes", static_cast<double>(nodes));
  json.SetParam("updates", static_cast<double>(num_updates));
  json.SetParam("seed", static_cast<double>(seed));

  std::printf("=== Update cost: incremental maintenance vs rebuild ===\n");
  std::printf("%zu nodes, %zu random updates per dataset\n\n", nodes,
              num_updates);

  TablePrinter table({"dataset p", "kind", "rows touched/upd", "% of rows",
                      "tree entries/upd", "ms/update", "rebuild (ms)"});

  for (const double density : {0.001, 0.01}) {
    for (const int kind : {0, 1, 2}) {  // 0=decrease, 1=increase, 2=insert
      RoadNetwork graph =
          MakeRandomPlanar({.num_nodes = nodes, .seed = seed});
      const std::vector<NodeId> objects =
          UniformDataset(graph, density, seed + 1);

      Timer rebuild_timer;
      auto index = BuildSignatureIndex(graph, objects,
                                       {.t = 10, .c = 2.718281828});
      const double rebuild_ms = rebuild_timer.ElapsedMillis();
      SignatureUpdater updater(&graph, index.get());

      Random rng(seed + static_cast<uint64_t>(kind));
      size_t rows = 0, tree_entries = 0, applied = 0;
      std::vector<size_t> update_ids(num_updates);
      for (size_t i = 0; i < num_updates; ++i) update_ids[i] = i;
      const Measurement m = MeasureItems(nullptr, update_ids, [&](size_t) {
        UpdateStats stats;
        if (kind == 2) {
          // A realistic new road is local: connect a node to a
          // neighbour-of-neighbour it has no direct edge to yet.
          const NodeId u =
              static_cast<NodeId>(rng.NextUint64(graph.num_nodes()));
          NodeId v = kInvalidNode;
          for (const AdjacencyEntry& e1 : graph.adjacency(u)) {
            if (e1.removed) continue;
            for (const AdjacencyEntry& e2 : graph.adjacency(e1.to)) {
              if (e2.removed || e2.to == u) continue;
              if (graph.FindEdge(u, e2.to) == kInvalidEdge) {
                v = e2.to;
                break;
              }
            }
            if (v != kInvalidNode) break;
          }
          if (v == kInvalidNode) return;
          stats = updater.AddEdge(u, v, rng.NextInt(1, 10));
        } else {
          const EdgeId e =
              static_cast<EdgeId>(rng.NextUint64(graph.num_edge_slots()));
          if (graph.edge_removed(e)) return;
          const Weight w = graph.edge_weight(e);
          const Weight nw = kind == 0 ? std::max<Weight>(1, w - 2) : w + 2;
          if (nw == w) return;
          stats = updater.SetEdgeWeight(e, nw);
        }
        rows += stats.rows_rewritten;
        tree_entries += stats.tree_entries_changed;
        ++applied;
      });
      const double ms_per_update =
          m.mean_ms * static_cast<double>(num_updates) /
          static_cast<double>(applied);
      const double rows_per_update =
          static_cast<double>(rows) / static_cast<double>(applied);
      const char* kind_name =
          kind == 0 ? "decrease" : (kind == 1 ? "increase" : "insert");
      auto* point =
          json.Add("update_cost", kind_name, Fmt("%.3f", density), m);
      if (point != nullptr) {
        point->metrics["rows_per_update"] = rows_per_update;
        point->metrics["tree_entries_per_update"] =
            static_cast<double>(tree_entries) / static_cast<double>(applied);
        point->metrics["ms_per_update"] = ms_per_update;
        point->metrics["rebuild_ms"] = rebuild_ms;
      }
      table.AddRow({Fmt("%.3f", density), kind_name,
                    Fmt("%.1f", rows_per_update),
                    Fmt("%.2f%%", 100.0 * rows_per_update /
                                      static_cast<double>(nodes)),
                    Fmt("%.1f", static_cast<double>(tree_entries) /
                                    static_cast<double>(applied)),
                    Fmt("%.2f", ms_per_update), Fmt("%.0f", rebuild_ms)});
    }
  }
  table.Print();
  std::printf(
      "\nExpected shape: a few %% of rows touched per update; ms/update "
      "orders\nof magnitude below the rebuild time.\n");

  // --- WAL overhead: durable vs in-place updates --------------------------
  std::printf("\n=== WAL overhead: the price of crash consistency ===\n");

  // One scripted update stream, replayed identically under every mode.
  std::vector<UpdateRecord> script;
  {
    const RoadNetwork base = MakeRandomPlanar({.num_nodes = nodes,
                                               .seed = seed});
    Random rng(seed + 5);
    for (size_t i = 0; i < num_updates; ++i) {
      if (rng.NextBool(0.3)) {
        const NodeId u = static_cast<NodeId>(rng.NextUint64(base.num_nodes()));
        NodeId v = static_cast<NodeId>(rng.NextUint64(base.num_nodes()));
        if (u == v) v = (v + 1) % static_cast<NodeId>(base.num_nodes());
        script.push_back(UpdateRecord::Add(u, v, rng.NextInt(1, 10)));
      } else {
        const EdgeId e =
            static_cast<EdgeId>(rng.NextUint64(base.num_edge_slots()));
        script.push_back(UpdateRecord::SetWeight(e, rng.NextInt(1, 10)));
      }
    }
  }

  struct WalMode {
    const char* name;
    bool wal;
    DurableOptions::SyncMode sync;
    uint64_t interval;
  };
  const WalMode modes[] = {
      {"in-place", false, DurableOptions::SyncMode::kNone, 0},
      {"wal sync=none", true, DurableOptions::SyncMode::kNone, 0},
      {"wal ckpt-interval=1000", true, DurableOptions::SyncMode::kCheckpoint,
       1000},
      {"wal sync=every-record", true, DurableOptions::SyncMode::kEveryRecord,
       0},
  };

  TablePrinter wal_table({"mode", "ms/update", "overhead x"});
  double in_place_ms = 0;
  for (const WalMode& mode : modes) {
    RoadNetwork graph = MakeRandomPlanar({.num_nodes = nodes, .seed = seed});
    const std::vector<NodeId> objects = UniformDataset(graph, 0.01, seed + 1);
    auto index =
        BuildSignatureIndex(graph, objects, {.t = 10, .c = 2.718281828});

    double total_ms = 0;
    if (!mode.wal) {
      SignatureUpdater updater(&graph, index.get());
      Timer timer;
      for (const UpdateRecord& record : script) updater.Apply(record);
      total_ms = timer.ElapsedMillis();
    } else {
      const std::string dir =
          (std::filesystem::temp_directory_path() /
           (std::string("bench_update_wal_") + std::to_string(mode.interval) +
            "_" + std::to_string(static_cast<int>(mode.sync))))
              .string();
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
      DurableOptions options;
      options.sync = mode.sync;
      options.checkpoint_interval = mode.interval;
      auto live = DurableUpdater::Initialize(dir, &graph, index.get(),
                                             options);
      if (!live.ok()) {
        std::fprintf(stderr, "cannot initialize %s: %s\n", dir.c_str(),
                     live.status().ToString().c_str());
        return 1;
      }
      Timer timer;
      for (const UpdateRecord& record : script) (*live)->Apply(record);
      total_ms = timer.ElapsedMillis();
      (*live)->Close();
      std::filesystem::remove_all(dir);
    }

    const double ms_per_update =
        total_ms / static_cast<double>(script.size());
    if (!mode.wal) in_place_ms = ms_per_update;
    const double overhead = in_place_ms > 0 ? ms_per_update / in_place_ms : 1;
    wal_table.AddRow({mode.name, Fmt("%.3f", ms_per_update),
                      Fmt("%.2f", overhead)});
    Measurement m;
    m.mean_ms = ms_per_update;
    m.items = script.size();
    auto* point = json.Add("wal_overhead", mode.name, Fmt("%zu", nodes), m);
    if (point != nullptr) {
      point->metrics["ms_per_update"] = ms_per_update;
      point->metrics["overhead_x"] = overhead;
    }
  }
  wal_table.Print();
  std::printf(
      "\nExpected shape: buffered WAL modes within ~2x of in-place; "
      "fsync-per-record\npays the disk flush on every update.\n");
  json.Write();
  return 0;
}
