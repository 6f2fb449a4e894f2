// E8 — micro-benchmarks of the signature's basic operations (§3.2), using
// google-benchmark: exact/approximate retrieval, exact/approximate
// comparison, distance sorting, and row decode/encode.
//
// E9 — `--exhibit=label_distance` switches the binary to the hub-label
// exhibit instead: exact node→object distance measured three ways on the
// same random pairs — the label tier (one sorted-array merge), signature
// link-chasing (one row decode per hop), and Dijkstra — with
// speedup_vs_chase attached per series and the usual --json BenchReport
// mirror. Prints a greppable LABEL_DISTANCE summary line for CI bounds, and
// reports the serialized label section against the in-memory pools with
// its encode and decode times.
#include <benchmark/benchmark.h>

#include <functional>

#include "bench/bench_common.h"
#include "core/distance_ops.h"
#include "core/hub_labels.h"
#include "core/signature_builder.h"
#include "graph/dijkstra.h"
#include "graph/graph_generator.h"
#include "query/planner.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workload/dataset_generator.h"

namespace dsig {
namespace {

// One shared fixture: building the index dominates setup time, so reuse it
// across benchmarks (function-local static, never destroyed).
struct OpsEnv {
  RoadNetwork graph;
  std::vector<NodeId> objects;
  std::unique_ptr<SignatureIndex> index;

  OpsEnv()
      : graph(MakeRandomPlanar({.num_nodes = 10000, .seed = 42})),
        objects(UniformDataset(graph, 0.01, 43)),
        index(BuildSignatureIndex(graph, objects,
                                  {.t = 10,
                                   .c = 2.718281828,
                                   .keep_forest = false})) {}
};

OpsEnv& Env() {
  static OpsEnv& env = *new OpsEnv();
  return env;
}

void BM_ExactDistance(benchmark::State& state) {
  OpsEnv& env = Env();
  Random rng(1);
  for (auto _ : state) {
    const NodeId n = static_cast<NodeId>(rng.NextUint64(env.graph.num_nodes()));
    const auto o = static_cast<uint32_t>(rng.NextUint64(env.objects.size()));
    benchmark::DoNotOptimize(ExactDistance(*env.index, n, o));
  }
}
BENCHMARK(BM_ExactDistance);

void BM_ApproximateDistance(benchmark::State& state) {
  OpsEnv& env = Env();
  Random rng(2);
  const Weight eps = static_cast<Weight>(state.range(0));
  for (auto _ : state) {
    const NodeId n = static_cast<NodeId>(rng.NextUint64(env.graph.num_nodes()));
    const auto o = static_cast<uint32_t>(rng.NextUint64(env.objects.size()));
    benchmark::DoNotOptimize(
        ApproximateDistance(*env.index, n, o, {eps, eps}));
  }
}
BENCHMARK(BM_ApproximateDistance)->Arg(10)->Arg(100)->Arg(1000);

void BM_ExactCompare(benchmark::State& state) {
  OpsEnv& env = Env();
  Random rng(3);
  RowStage stage;
  for (auto _ : state) {
    const NodeId n = static_cast<NodeId>(rng.NextUint64(env.graph.num_nodes()));
    env.index->ReadRowStaged(n, &stage);
    const auto a = static_cast<uint32_t>(rng.NextUint64(env.objects.size()));
    const auto b = static_cast<uint32_t>(rng.NextUint64(env.objects.size()));
    benchmark::DoNotOptimize(ExactCompare(*env.index, n, a, b, stage));
  }
}
BENCHMARK(BM_ExactCompare);

void BM_ApproximateCompare(benchmark::State& state) {
  OpsEnv& env = Env();
  Random rng(4);
  RowStage stage;
  for (auto _ : state) {
    const NodeId n = static_cast<NodeId>(rng.NextUint64(env.graph.num_nodes()));
    env.index->ReadRowStaged(n, &stage);
    const auto a = static_cast<uint32_t>(rng.NextUint64(env.objects.size()));
    const auto b = static_cast<uint32_t>(rng.NextUint64(env.objects.size()));
    benchmark::DoNotOptimize(ApproximateCompare(*env.index, n, a, b, stage));
  }
}
BENCHMARK(BM_ApproximateCompare);

void BM_SortByDistance(benchmark::State& state) {
  OpsEnv& env = Env();
  Random rng(5);
  const size_t set_size = static_cast<size_t>(state.range(0));
  RowStage stage;
  for (auto _ : state) {
    const NodeId n = static_cast<NodeId>(rng.NextUint64(env.graph.num_nodes()));
    env.index->ReadRowStaged(n, &stage);
    std::vector<uint32_t> objs;
    for (size_t i = 0; i < set_size; ++i) {
      objs.push_back(static_cast<uint32_t>(
          rng.NextUint64(env.objects.size())));
    }
    SortByDistance(*env.index, n, stage, &objs);
    benchmark::DoNotOptimize(objs);
  }
}
BENCHMARK(BM_SortByDistance)->Arg(5)->Arg(20)->Arg(50);

void BM_ReadRowStaged(benchmark::State& state) {
  OpsEnv& env = Env();
  Random rng(6);
  RowStage stage;
  for (auto _ : state) {
    const NodeId n = static_cast<NodeId>(rng.NextUint64(env.graph.num_nodes()));
    env.index->ReadRowStaged(n, &stage);
    benchmark::DoNotOptimize(stage.categories());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ReadRowStaged);

void BM_DecodeSingleEntry(benchmark::State& state) {
  OpsEnv& env = Env();
  Random rng(7);
  for (auto _ : state) {
    const NodeId n = static_cast<NodeId>(rng.NextUint64(env.graph.num_nodes()));
    const auto o = static_cast<uint32_t>(rng.NextUint64(env.objects.size()));
    benchmark::DoNotOptimize(env.index->ReadEntry(n, o));
  }
}
BENCHMARK(BM_DecodeSingleEntry);

// ---- E9: label_distance exhibit -------------------------------------------

// Labels vs link-chase vs Dijkstra on identical random node→object pairs.
// The three answers are asserted equal pair by pair (integer weights make
// them bitwise comparable), so the speedup columns compare routes to the
// same result, not approximations of it.
int RunLabelDistanceExhibit(const Flags& flags) {
  if (!bench::ApplyObsFlags(flags)) return 1;
  const size_t nodes = static_cast<size_t>(flags.GetInt("nodes", 10000));
  const size_t pairs = static_cast<size_t>(flags.GetInt("queries", 500));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  const RoadNetwork graph = MakeRandomPlanar({.num_nodes = nodes, .seed = seed});
  const std::vector<NodeId> objects = UniformDataset(graph, 0.01, seed + 1);
  const auto index = BuildSignatureIndex(
      graph, objects, {.t = 10, .c = 2.718281828, .keep_forest = false});

  Timer label_timer;
  index->set_hub_labels(HubLabels::Build(graph, {}, &ThreadPool::Global()));
  const double build_s = label_timer.ElapsedSeconds();
  const HubLabelStats ls = index->hub_labels()->stats();
  std::printf(
      "label tier: built in %.2fs — %llu entries, %.1f/node, %.1f KB\n",
      build_s, static_cast<unsigned long long>(ls.entries),
      ls.avg_label_entries, static_cast<double>(ls.bytes) / 1024.0);

  // The persisted form next to the pools it decodes into: the blob is the
  // payload of the index file's label section.
  Timer encode_timer;
  std::vector<uint8_t> blob = index->hub_labels()->Serialize();
  const double encode_s = encode_timer.ElapsedSeconds();
  const size_t section_bytes = blob.size();
  Timer decode_timer;
  const bool decoded = HubLabels::FromSerialized(std::move(blob))->ready();
  const double decode_s = decode_timer.ElapsedSeconds();
  if (!decoded) {
    std::fprintf(stderr, "serialized labels do not decode\n");
    return 1;
  }
  std::printf(
      "label section: %.1f KB (%.1f%% of the pools), encode %.1f ms, "
      "decode %.1f ms\n",
      static_cast<double>(section_bytes) / 1024.0,
      100.0 * static_cast<double>(section_bytes) /
          static_cast<double>(ls.bytes),
      encode_s * 1000.0, decode_s * 1000.0);

  struct Pair {
    NodeId n;
    uint32_t o;
  };
  Random rng(seed + 2);
  std::vector<Pair> workload(pairs);
  for (Pair& p : workload) {
    p.n = static_cast<NodeId>(rng.NextUint64(graph.num_nodes()));
    p.o = static_cast<uint32_t>(rng.NextUint64(objects.size()));
  }

  // Route sanity before timing: all three machines answer every pair with
  // the same bits.
  for (const Pair& p : workload) {
    const Weight labeled = RoutedObjectDistance(*index, p.n, p.o, nullptr);
    const Weight chased = ExactDistance(*index, p.n, p.o);
    const Weight dijkstra =
        DijkstraDistance(graph, p.n, index->object_node(p.o));
    if (labeled != chased || labeled != dijkstra) {
      std::fprintf(stderr,
                   "route disagreement at n=%u o=%u: %f / %f / %f\n", p.n,
                   p.o, labeled, chased, dijkstra);
      return 1;
    }
  }

  bench::BenchJson json(flags, "ops");
  json.SetParam("nodes", static_cast<double>(nodes));
  json.SetParam("pairs", static_cast<double>(pairs));
  json.SetParam("label_entries", static_cast<double>(ls.entries));
  json.SetParam("label_pool_bytes", static_cast<double>(ls.bytes));
  json.SetParam("label_section_bytes", static_cast<double>(section_bytes));
  json.SetParam("label_avg_entries", ls.avg_label_entries);
  json.SetParam("label_build_s", build_s);
  json.SetParam("label_encode_s", encode_s);
  json.SetParam("label_decode_s", decode_s);

  struct Series {
    const char* name;
    std::function<void(const Pair&)> fn;
    bench::Measurement m;
  };
  std::vector<Series> series;
  series.push_back({"labels",
                    [&](const Pair& p) {
                      benchmark::DoNotOptimize(
                          RoutedObjectDistance(*index, p.n, p.o, nullptr));
                    },
                    {}});
  series.push_back({"link_chase",
                    [&](const Pair& p) {
                      benchmark::DoNotOptimize(
                          ExactDistance(*index, p.n, p.o));
                    },
                    {}});
  series.push_back({"dijkstra",
                    [&](const Pair& p) {
                      benchmark::DoNotOptimize(DijkstraDistance(
                          graph, p.n, index->object_node(p.o)));
                    },
                    {}});
  for (Series& s : series) {
    s.m = bench::MeasureItems(nullptr, workload, s.fn);
  }

  const double chase_ms = series[1].m.mean_ms;
  bench::TablePrinter table(
      {"series", "mean_ms", "p99_ms", "speedup_vs_chase"});
  for (Series& s : series) {
    const double speedup = s.m.mean_ms > 0 ? chase_ms / s.m.mean_ms : 1;
    table.AddRow({s.name, bench::Fmt("%.5f", s.m.mean_ms),
                  bench::Fmt("%.5f", s.m.latency_ms.p99),
                  bench::Fmt("%.1fx", speedup)});
    auto* point = json.Add("label_distance", s.name, "default", s.m);
    if (point != nullptr) point->metrics["speedup_vs_chase"] = speedup;
  }
  table.Print();
  std::printf(
      "LABEL_DISTANCE label_us=%.2f chase_us=%.2f dijkstra_us=%.2f "
      "speedup_vs_chase=%.1f speedup_vs_dijkstra=%.1f\n",
      series[0].m.mean_ms * 1000.0, chase_ms * 1000.0,
      series[2].m.mean_ms * 1000.0, chase_ms / series[0].m.mean_ms,
      series[2].m.mean_ms / series[0].m.mean_ms);
  json.Write();
  return 0;
}

}  // namespace
}  // namespace dsig

int main(int argc, char** argv) {
  const dsig::Flags flags(argc, argv);
  if (flags.GetString("exhibit", "") == "label_distance") {
    return dsig::RunLabelDistanceExhibit(flags);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
