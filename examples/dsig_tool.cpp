// dsig_tool — command-line front end for building, persisting, verifying,
// and querying signature indexes. Demonstrates the persistence API end to
// end, including its corruption handling.
//
// Commands:
//   generate  --network=<file> [--nodes=N] [--kind=planar|continental] [--seed=S]
//   build     --network=<file> --index=<file> [--density=p] [--t=T] [--c=C]
//             [--threads=N] [--labels]
//   info      --network=<file> --index=<file>
//   verify    --network=<file> --index=<file>
//   corrupt   --file=<file> --offset=<byte> [--xor=mask] [--truncate]
//   knn       --network=<file> --index=<file> --node=<id> [--k=K]
//   range     --network=<file> --index=<file> --node=<id> [--radius=R]
//   stats     --network=<file> --index=<file> [--queries=N] [--k=K]
//             [--radius=R] [--threads=N] [--cache-kb=N] [--updates=N]
//             [--format=json|prometheus]
//   chaos     --dir=<dir> [--nodes=N] [--updates=N] [--threads=N]
//             [--crash-at=BYTE] [--checkpoint-interval=N] [--seed=S]
//   slo       --port=P | --port-file=PATH  [--probe=N] [--out=FILE]
//             [--timeout-ms=2000]
//
// `build --threads=N` runs the construction pipeline on N worker threads
// (0 = all hardware threads); the built index is byte-identical at every N.
// `build --labels` additionally constructs the exact-distance hub-label
// tier (core/hub_labels.h) and persists it as the optional section of the
// index file; `info` and `stats` report it (label entry counts, bytes, and
// the labels.* gauges in the registry dump), and files built without it
// keep loading unchanged.
// `stats --threads=N` serves the query workload through the parallel batch
// driver on N threads; `--cache-kb` sizes the decoded-row LRU (0 disables
// it). The dumped registry includes the pool ("pool.*") and row-cache
// ("rowcache.*", with hit_rate) metrics next to the buffer and op counters.
//
// `stats --updates=N` first drives N random live updates through
// SignatureUpdater (rebuilding the spanning forest on load), so the
// update.* counters appear in the dump alongside the query
// metrics. `chaos` is the command-line face of the update/query chaos
// harness: it builds a throwaway deployment in --dir, hammers it with a
// random update storm under the WAL while query threads run concurrently,
// optionally injects a crash at WAL byte --crash-at, then hard-drops the
// process state, recovers from disk, deep-verifies the recovered index, and
// dumps the wal.*/update.* metrics.
//
// Global flags (any command):
//   --trace            emit one JSON trace line per query to stderr
//   --log-level=LEVEL  minimum DSIG_LOG severity (debug|info|warning|error)
//
// `slo` asks a running dsig_serve for its SLO health: prints the greppable
// SLO_HEALTH / SLO_OVERALL lines (per-class burn-rate state) and, with
// --out, archives the machine-readable health report (the kStats JSON:
// metrics registry + SLO engine) to a file. --probe=N first issues N cheap
// kNN queries so an idle server has fresh traffic in its windows.
//
// `verify` loads the index and runs the deep integrity check
// (SignatureIndex::Verify): exit 0 = clean, nonzero = corrupt, with the
// violation printed. `corrupt` deliberately damages a file in place — XOR a
// mask into one byte (negative offsets count from the end) or truncate — so
// the corruption handling can be exercised from the shell.
//
// Example session:
//   dsig_tool generate --network=/tmp/city.net --nodes=5000
//   dsig_tool build    --network=/tmp/city.net --index=/tmp/city.idx
//   dsig_tool verify   --network=/tmp/city.net --index=/tmp/city.idx
//   dsig_tool corrupt  --file=/tmp/city.idx --offset=-100 --xor=0x40
//   dsig_tool verify   --network=/tmp/city.net --index=/tmp/city.idx  # fails
//   dsig_tool stats    --network=/tmp/city.net --index=/tmp/city.idx --trace
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "core/hub_labels.h"
#include "core/signature_builder.h"
#include "core/update.h"
#include "graph/graph_generator.h"
#include "io/durable_index.h"
#include "io/persistence.h"
#include "obs/metrics.h"
#include "obs/op_counters.h"
#include "obs/trace.h"
#include "query/batch.h"
#include "query/knn_query.h"
#include "query/range_query.h"
#include "serve/loadgen.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/simd/simd.h"
#include "util/timer.h"
#include "workload/dataset_generator.h"
#include "workload/query_generator.h"

namespace {

using namespace dsig;

int Usage() {
  std::fprintf(
      stderr,
      "usage: dsig_tool "
      "<generate|build|info|verify|corrupt|knn|range|stats|chaos|slo> "
      "[flags]\n"
      "global flags: --trace --log-level=<debug|info|warning|error>\n"
      "see the header of examples/dsig_tool.cpp for details\n");
  return 1;
}

int Generate(const Flags& flags) {
  const std::string path = flags.GetString("network", "");
  if (path.empty()) return Usage();
  const size_t nodes = static_cast<size_t>(flags.GetInt("nodes", 5000));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const std::string kind = flags.GetString("kind", "planar");
  RoadNetwork graph;
  if (kind == "continental") {
    graph = MakeClusteredContinental(
        {.num_clusters = std::max<size_t>(2, nodes / 1000),
         .nodes_per_cluster = 1000,
         .seed = seed});
  } else {
    graph = MakeRandomPlanar({.num_nodes = nodes, .seed = seed});
  }
  const Status status = SaveRoadNetwork(graph, path);
  if (!status.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %zu junctions, %zu segments\n", path.c_str(),
              graph.num_nodes(), graph.num_edges());
  return 0;
}

int Build(const Flags& flags) {
  const std::string network_path = flags.GetString("network", "");
  const std::string index_path = flags.GetString("index", "");
  if (network_path.empty() || index_path.empty()) return Usage();
  auto graph = LoadRoadNetwork(network_path);
  if (!graph.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", network_path.c_str(),
                 graph.status().ToString().c_str());
    return 1;
  }
  const double density = flags.GetDouble("density", 0.01);
  const std::vector<NodeId> objects = UniformDataset(
      **graph, density, static_cast<uint64_t>(flags.GetInt("seed", 43)));
  Timer timer;
  const auto index = BuildSignatureIndex(
      **graph, objects,
      {.t = flags.GetDouble("t", 10.0),
       .c = flags.GetDouble("c", 2.718281828),
       .keep_forest = false,
       .num_threads = static_cast<size_t>(flags.GetInt("threads", 0))});
  std::printf("built index over %zu objects in %.2fs (%.1f KB)\n",
              objects.size(), timer.ElapsedSeconds(),
              static_cast<double>(index->IndexBytes()) / 1024.0);
  if (flags.GetBool("labels", false)) {
    Timer label_timer;
    index->set_hub_labels(
        HubLabels::Build(**graph, {}, &ThreadPool::Global()));
    const HubLabelStats ls = index->hub_labels()->stats();
    std::printf(
        "built hub labels in %.2fs: %llu entries (%.1f/node, %.1f KB)\n",
        label_timer.ElapsedSeconds(),
        static_cast<unsigned long long>(ls.entries), ls.avg_label_entries,
        static_cast<double>(ls.bytes) / 1024.0);
  }
  const Status status = SaveSignatureIndex(*index, index_path);
  if (!status.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", index_path.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", index_path.c_str());
  return 0;
}

struct Loaded {
  std::unique_ptr<RoadNetwork> graph;
  std::unique_ptr<SignatureIndex> index;
};

Loaded LoadBoth(const Flags& flags, bool verify = false) {
  Loaded loaded;
  auto graph = LoadRoadNetwork(flags.GetString("network", ""));
  if (!graph.ok()) {
    std::fprintf(stderr, "cannot load network: %s\n",
                 graph.status().ToString().c_str());
    return loaded;
  }
  loaded.graph = std::move(*graph);
  auto index = LoadSignatureIndex(*loaded.graph, flags.GetString("index", ""),
                                  {.verify = verify, .faults = {}});
  if (!index.ok()) {
    std::fprintf(stderr, "cannot load index: %s\n",
                 index.status().ToString().c_str());
    return loaded;
  }
  loaded.index = std::move(*index);
  return loaded;
}

int Info(const Flags& flags) {
  const Loaded loaded = LoadBoth(flags);
  if (loaded.index == nullptr) return 1;
  const SignatureSizeStats& s = loaded.index->size_stats();
  std::printf("network : %zu junctions, %zu segments\n",
              loaded.graph->num_nodes(), loaded.graph->num_edges());
  std::printf("objects : %zu\n", loaded.index->num_objects());
  std::printf("categories: %d (T=%.1f, c=%.3f)\n",
              loaded.index->partition().num_categories(),
              loaded.index->partition().t(), loaded.index->partition().c());
  std::printf("size    : %.1f KB stored (raw %.1f KB, encoded %.1f KB)\n",
              static_cast<double>(s.compressed_bits) / 8 / 1024.0,
              static_cast<double>(s.raw_bits) / 8 / 1024.0,
              static_cast<double>(s.encoded_bits) / 8 / 1024.0);
  std::printf("compressed entries: %.0f%%\n",
              100.0 * static_cast<double>(s.compressed_entries) /
                  static_cast<double>(s.entries));
  if (const HubLabels* labels = loaded.index->hub_labels();
      labels != nullptr && labels->ready()) {
    const HubLabelStats ls = labels->stats();
    std::printf("labels  : %llu entries (%.1f/node, %.1f KB)%s\n",
                static_cast<unsigned long long>(ls.entries),
                ls.avg_label_entries,
                static_cast<double>(ls.bytes) / 1024.0,
                labels->stale() ? " [stale]" : "");
  } else {
    std::printf("labels  : none\n");
  }
  return 0;
}

// Loads with LoadOptions::verify, so the checksums AND the deep structural
// invariants (decodability, link chains, categories) are all proven.
int Verify(const Flags& flags) {
  const Loaded loaded = LoadBoth(flags, /*verify=*/true);
  if (loaded.index == nullptr) return 1;
  std::printf("index is clean: %zu rows over %zu objects verified\n",
              loaded.graph->num_nodes(), loaded.index->num_objects());
  return 0;
}

// Damages a file in place: XORs --xor (default 0x01) into the byte at
// --offset (negative = from the end), or cuts the file off there when
// --truncate is given.
int Corrupt(const Flags& flags) {
  const std::string path = flags.GetString("file", "");
  if (path.empty() || !flags.Has("offset")) return Usage();
  std::FILE* file = std::fopen(path.c_str(), "rb+");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  int64_t offset = flags.GetInt("offset", 0);
  if (offset < 0) offset += size;
  if (offset < 0 || offset >= size) {
    std::fprintf(stderr, "offset out of range (file has %ld bytes)\n", size);
    std::fclose(file);
    return 1;
  }
  if (flags.GetBool("truncate", false)) {
    std::fclose(file);
    // Rewrite the prefix: portable truncation without ftruncate.
    std::FILE* in = std::fopen(path.c_str(), "rb");
    std::string prefix(static_cast<size_t>(offset), '\0');
    const size_t got = std::fread(prefix.data(), 1, prefix.size(), in);
    std::fclose(in);
    std::FILE* out = std::fopen(path.c_str(), "wb");
    std::fwrite(prefix.data(), 1, got, out);
    std::fclose(out);
    std::printf("truncated %s to %lld bytes\n", path.c_str(),
                static_cast<long long>(offset));
    return 0;
  }
  const uint8_t mask =
      static_cast<uint8_t>(flags.GetInt("xor", 0x01) & 0xFF);
  std::fseek(file, static_cast<long>(offset), SEEK_SET);
  uint8_t byte = 0;
  if (std::fread(&byte, 1, 1, file) != 1) {
    std::fclose(file);
    std::fprintf(stderr, "cannot read byte %lld\n",
                 static_cast<long long>(offset));
    return 1;
  }
  byte ^= mask;
  std::fseek(file, static_cast<long>(offset), SEEK_SET);
  std::fwrite(&byte, 1, 1, file);
  std::fclose(file);
  std::printf("flipped byte %lld of %s with mask 0x%02x\n",
              static_cast<long long>(offset), path.c_str(), mask);
  return 0;
}

int Knn(const Flags& flags) {
  const Loaded loaded = LoadBoth(flags);
  if (loaded.index == nullptr) return 1;
  const NodeId node = static_cast<NodeId>(flags.GetInt("node", 0));
  const size_t k = static_cast<size_t>(flags.GetInt("k", 5));
  if (node >= loaded.graph->num_nodes()) {
    std::fprintf(stderr, "node out of range\n");
    return 1;
  }
  const KnnResult result =
      SignatureKnnQuery(*loaded.index, node, k, KnnResultType::kType1);
  std::printf("%zu nearest objects from node %u:\n", result.objects.size(),
              node);
  for (size_t i = 0; i < result.objects.size(); ++i) {
    std::printf("  #%u at node %u, distance %.0f\n", result.objects[i],
                loaded.index->object_node(result.objects[i]),
                result.distances[i]);
  }
  return 0;
}

int Range(const Flags& flags) {
  const Loaded loaded = LoadBoth(flags);
  if (loaded.index == nullptr) return 1;
  const NodeId node = static_cast<NodeId>(flags.GetInt("node", 0));
  const Weight radius = flags.GetDouble("radius", 50.0);
  if (node >= loaded.graph->num_nodes()) {
    std::fprintf(stderr, "node out of range\n");
    return 1;
  }
  const RangeQueryResult result =
      SignatureRangeQuery(*loaded.index, node, radius);
  std::printf("%zu objects within %.0f of node %u (refined %zu)\n",
              result.objects.size(), radius, node, result.refined);
  for (const uint32_t o : result.objects) {
    std::printf("  #%u at node %u\n", o, loaded.index->object_node(o));
  }
  return 0;
}

// Runs a small in-process query workload against the loaded index, then
// dumps the process-wide metrics registry — counters, gauges, and latency
// histograms — as JSON (default) or Prometheus text.
int Stats(const Flags& flags) {
  const Loaded loaded = LoadBoth(flags);
  if (loaded.index == nullptr) return 1;
  const size_t num_queries =
      static_cast<size_t>(flags.GetInt("queries", 10));
  const size_t k = static_cast<size_t>(flags.GetInt("k", 5));
  const Weight radius = flags.GetDouble("radius", 100.0);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 44));

  if (flags.Has("cache-kb")) {
    loaded.index->ConfigureRowCache(
        {.byte_budget =
             static_cast<size_t>(flags.GetInt("cache-kb", 0)) * 1024});
  }

  // Optional live-update leg: drive random mutations through the updater so
  // the update.* counters show up in the dump.
  const int num_updates = static_cast<int>(flags.GetInt("updates", 0));
  if (num_updates > 0) {
    loaded.index->RebuildForest();  // persistence does not store the forest
    SignatureUpdater updater(loaded.graph.get(), loaded.index.get());
    Random rng(seed + 17);
    for (int i = 0; i < num_updates; ++i) {
      if (rng.NextBool(0.3)) {
        const NodeId u = static_cast<NodeId>(
            rng.NextUint64(loaded.graph->num_nodes()));
        NodeId v =
            static_cast<NodeId>(rng.NextUint64(loaded.graph->num_nodes()));
        if (u == v) {
          v = (v + 1) % static_cast<NodeId>(loaded.graph->num_nodes());
        }
        updater.AddEdge(u, v, rng.NextInt(1, 10));
      } else {
        const EdgeId e = static_cast<EdgeId>(
            rng.NextUint64(loaded.graph->num_edge_slots()));
        if (loaded.graph->edge_removed(e)) continue;
        updater.SetEdgeWeight(e, rng.NextInt(1, 10));
      }
    }
  }

  const std::vector<NodeId> queries =
      RandomQueryNodes(*loaded.graph, num_queries, seed);
  const size_t threads = static_cast<size_t>(flags.GetInt("threads", 1));
  if (threads > 1) {
    ThreadPool pool(threads);
    RunBatch(
        queries.size(),
        [&](size_t i) {
          SignatureKnnQuery(*loaded.index, queries[i], k,
                            KnnResultType::kType1);
          SignatureRangeQuery(*loaded.index, queries[i], radius);
        },
        {.pool = &pool});
  } else {
    for (const NodeId q : queries) {
      SignatureKnnQuery(*loaded.index, q, k, KnnResultType::kType1);
      SignatureRangeQuery(*loaded.index, q, radius);
    }
  }
  PublishOpCounters();
  obs::PublishThreadPoolMetrics();
  PublishRowCacheMetrics();
  PublishHubLabelMetrics(loaded.index->hub_labels());
  // Human-readable dispatch line on stderr; stdout stays machine-readable.
  std::fprintf(stderr, "simd: %s\n", simd::CpuFeatureString().c_str());

  const std::string format = flags.GetString("format", "json");
  if (format == "prometheus") {
    std::fputs(obs::MetricsRegistry::Global().ToPrometheusText().c_str(),
               stdout);
  } else if (format == "json") {
    std::printf("%s\n", obs::MetricsRegistry::Global().ToJson().c_str());
  } else {
    std::fprintf(stderr, "unknown --format=%s (json|prometheus)\n",
                 format.c_str());
    return 1;
  }
  return 0;
}

// Update/query chaos driver over the durable-update protocol: a random
// update storm runs through the WAL while query threads hammer the index,
// an optional injected crash tears the log at --crash-at, and the run ends
// with a hard drop of all process state followed by recovery plus deep
// verification — the same contract tests/update_chaos_test.cc proves
// exhaustively, runnable against arbitrary sizes from the shell.
int Chaos(const Flags& flags) {
  const std::string dir = flags.GetString("dir", "");
  if (dir.empty()) return Usage();
  std::filesystem::create_directories(dir);
  const size_t nodes = static_cast<size_t>(flags.GetInt("nodes", 400));
  const int updates = static_cast<int>(flags.GetInt("updates", 200));
  const size_t threads = static_cast<size_t>(flags.GetInt("threads", 2));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));

  RoadNetwork graph = MakeRandomPlanar({.num_nodes = nodes, .seed = seed});
  const std::vector<NodeId> objects = UniformDataset(graph, 0.02, seed);
  auto index = BuildSignatureIndex(graph, objects, {.t = 8, .c = 2});
  std::printf("deployment: %zu junctions, %zu objects, index %.1f KB\n",
              graph.num_nodes(), objects.size(),
              static_cast<double>(index->IndexBytes()) / 1024.0);

  DurableOptions options;
  options.checkpoint_interval =
      static_cast<uint64_t>(flags.GetInt("checkpoint-interval", 0));
  if (flags.Has("crash-at")) {
    options.wal_faults.fail_at =
        static_cast<uint64_t>(flags.GetInt("crash-at", 0));
  }
  auto live = DurableUpdater::Initialize(dir, &graph, index.get(), options);
  if (!live.ok()) {
    std::fprintf(stderr, "cannot initialize %s: %s\n", dir.c_str(),
                 live.status().ToString().c_str());
    return 1;
  }

  std::atomic<bool> done{false};
  std::atomic<uint64_t> queries_served{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < threads; ++t) {
    readers.emplace_back([&, t] {
      Random rng(seed * 31 + t);
      while (!done.load(std::memory_order_relaxed)) {
        const NodeId n =
            static_cast<NodeId>(rng.NextUint64(graph.num_nodes()));
        SignatureKnnQuery(*index, n, 4, KnnResultType::kType1);
        queries_served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Random rng(seed + 1);
  int applied = 0;
  Status crash = Status::Ok();
  for (int i = 0; i < updates; ++i) {
    UpdateRecord record;
    const double roll = rng.NextDouble();
    if (roll < 0.4) {
      const NodeId u = static_cast<NodeId>(rng.NextUint64(graph.num_nodes()));
      NodeId v = static_cast<NodeId>(rng.NextUint64(graph.num_nodes()));
      if (u == v) v = (v + 1) % static_cast<NodeId>(graph.num_nodes());
      record = UpdateRecord::Add(u, v, rng.NextInt(1, 10));
    } else {
      const EdgeId e =
          static_cast<EdgeId>(rng.NextUint64(graph.num_edge_slots()));
      if (graph.edge_removed(e)) continue;
      record = roll < 0.45 ? UpdateRecord::Remove(e)
                           : UpdateRecord::SetWeight(e, rng.NextInt(1, 10));
    }
    const auto result = (*live)->Apply(record);
    if (!result.ok()) {
      crash = result.status();
      break;
    }
    ++applied;
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  std::printf("storm   : %d/%d updates applied, %llu concurrent queries\n",
              applied, updates,
              static_cast<unsigned long long>(queries_served.load()));
  if (!crash.ok()) {
    std::printf("crash   : %s\n", crash.ToString().c_str());
  }

  // Hard crash: discard all in-memory state, then recover from disk alone.
  live->reset();
  index.reset();
  RecoverOptions verify;
  verify.verify = true;
  auto recovered = DurableUpdater::Recover(dir, {}, verify);
  if (!recovered.ok()) {
    std::fprintf(stderr, "recovery FAILED: %s\n",
                 recovered.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "recovery: checkpoint seq %llu + %llu replayed records, "
      "index verified clean\n",
      static_cast<unsigned long long>(recovered->updater->checkpoint_seq()),
      static_cast<unsigned long long>(recovered->replayed_records));

  PublishOpCounters();
  std::printf("%s\n", obs::MetricsRegistry::Global().ToJson().c_str());
  return 0;
}

// SLO health of a running dsig_serve: greppable text to stdout, optional
// machine-readable report (the kStats JSON) to --out. Exit 0 whenever the
// fetch succeeds — health state is data, not an exit code; the smoke
// harness asserts on the printed lines.
int Slo(const Flags& flags) {
  uint16_t port = static_cast<uint16_t>(flags.GetInt("port", 0));
  const std::string port_file = flags.GetString("port-file", "");
  if (port == 0 && !port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "r");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot read --port-file=%s\n", port_file.c_str());
      return 1;
    }
    unsigned parsed = 0;
    if (std::fscanf(f, "%u", &parsed) != 1) {
      std::fclose(f);
      std::fprintf(stderr, "no port in %s\n", port_file.c_str());
      return 1;
    }
    std::fclose(f);
    port = static_cast<uint16_t>(parsed);
  }
  if (port == 0) return Usage();
  const double timeout_ms = flags.GetDouble("timeout-ms", 2000);

  serve::ServeClient client;
  const Status connected = client.Connect(port, timeout_ms);
  if (!connected.ok()) {
    std::fprintf(stderr, "cannot connect to 127.0.0.1:%u: %s\n", port,
                 connected.ToString().c_str());
    return 1;
  }

  // Warm the windows with cheap traffic so an idle server reports on
  // something fresher than silence.
  const int probes = static_cast<int>(flags.GetInt("probe", 0));
  if (probes > 0) {
    serve::Request ping;
    ping.type = serve::RequestType::kPing;
    ping.id = 1;
    auto pong = client.Call(ping);
    if (!pong.ok() || (*pong).num_nodes == 0) {
      std::fprintf(stderr, "probe ping failed\n");
      return 1;
    }
    Random rng(17);
    for (int i = 0; i < probes; ++i) {
      serve::Request probe;
      probe.type = serve::RequestType::kKnn;
      probe.id = 100 + static_cast<uint64_t>(i);
      probe.node = static_cast<uint32_t>(rng.NextUint64((*pong).num_nodes));
      probe.k = 4;
      (void)client.Call(probe);
    }
  }

  serve::Request slo;
  slo.type = serve::RequestType::kSlo;
  slo.id = 2;
  auto health = client.Call(slo);
  if (!health.ok()) {
    std::fprintf(stderr, "slo request failed: %s\n",
                 health.status().ToString().c_str());
    return 1;
  }
  std::fputs((*health).text.c_str(), stdout);

  const std::string out = flags.GetString("out", "");
  if (!out.empty()) {
    serve::Request stats;
    stats.type = serve::RequestType::kStats;
    stats.id = 3;
    auto report = client.Call(stats);
    if (!report.ok()) {
      std::fprintf(stderr, "stats request failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    std::fputs((*report).text.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Flags flags(argc, argv);
  if (flags.Has("log-level")) {
    LogSeverity severity;
    if (!ParseLogSeverity(flags.GetString("log-level", ""), &severity)) {
      std::fprintf(stderr, "unknown --log-level=%s\n",
                   flags.GetString("log-level", "").c_str());
      return 1;
    }
    SetMinLogSeverity(severity);
  }
  if (flags.GetBool("trace", false)) obs::SetTracingEnabled(true);
  if (command == "generate") return Generate(flags);
  if (command == "build") return Build(flags);
  if (command == "info") return Info(flags);
  if (command == "verify") return Verify(flags);
  if (command == "corrupt") return Corrupt(flags);
  if (command == "knn") return Knn(flags);
  if (command == "range") return Range(flags);
  if (command == "stats") return Stats(flags);
  if (command == "chaos") return Chaos(flags);
  if (command == "slo") return Slo(flags);
  return Usage();
}
