// Ablation — the observer-voting approximate comparison (paper §3.2.2,
// Fig 3.2).
//
// The design choice under test: when two objects share a category, several
// *observers* (objects in strictly closer categories) vote on which is
// nearer via a 2-D embedding of the perpendicular-bisector heuristic. This
// bench measures, across datasets, how often the vote reaches a decision and
// how often decided votes are right — the quantities that determine how much
// exact refinement the initial sorting avoids.
#include "bench/bench_common.h"

#include "core/distance_ops.h"
#include "graph/dijkstra.h"

int main(int argc, char** argv) {
  using namespace dsig;
  using namespace dsig::bench;

  const Flags flags(argc, argv);
  if (!ApplyObsFlags(flags)) return 1;
  const size_t nodes = static_cast<size_t>(flags.GetInt("nodes", 6000));
  const size_t num_queries = static_cast<size_t>(flags.GetInt("queries", 40));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  BenchJson json(flags, "observers");
  json.SetParam("nodes", static_cast<double>(nodes));
  json.SetParam("queries", static_cast<double>(num_queries));
  json.SetParam("seed", static_cast<double>(seed));

  std::printf("=== Ablation: observer-voting comparison accuracy ===\n");
  std::printf("%zu nodes, same-category object pairs at %zu query nodes\n\n",
              nodes, num_queries);

  const RoadNetwork graph = MakeRandomPlanar({.num_nodes = nodes, .seed = seed});
  TablePrinter table({"dataset p", "pairs", "decided", "accuracy",
                      "would-save exact cmp"});
  for (const DatasetSpec& spec : PaperDatasets()) {
    const std::vector<NodeId> objects = MakeDataset(graph, spec, seed + 1);
    const auto index = BuildSignatureIndex(
        graph, objects, {.t = 10, .c = 2.718281828, .keep_forest = false});
    // Ground truth for accuracy scoring.
    std::vector<std::vector<Weight>> truth;
    for (const NodeId o : objects) truth.push_back(RunDijkstra(graph, o).dist);

    size_t pairs = 0, decided = 0, correct = 0;
    const std::vector<NodeId> queries =
        RandomQueryNodes(graph, num_queries, seed + 2);
    RowStage row;
    const Measurement m = MeasureItems(nullptr, queries, [&](NodeId q) {
      index->ReadRowStaged(q, &row);
      const uint8_t* categories = row.categories();
      for (uint32_t a = 0; a < objects.size() && pairs < 20000; ++a) {
        for (uint32_t b = a + 1; b < objects.size(); ++b) {
          if (categories[a] != categories[b]) continue;
          if (truth[a][q] == truth[b][q]) continue;  // true ties score noisily
          ++pairs;
          const CompareResult r = ApproximateCompare(*index, q, a, b, row);
          if (r == CompareResult::kEqual) continue;
          ++decided;
          if ((r == CompareResult::kLess) == (truth[a][q] < truth[b][q])) {
            ++correct;
          }
        }
      }
    });
    auto* point = json.Add("observer_accuracy", "Signature", spec.label, m);
    if (point != nullptr) {
      point->metrics["pairs"] = static_cast<double>(pairs);
      point->metrics["decided_rate"] =
          pairs == 0 ? 0.0 : static_cast<double>(decided) / pairs;
      point->metrics["accuracy"] =
          decided == 0 ? 0.0 : static_cast<double>(correct) / decided;
    }
    table.AddRow(
        {spec.label, std::to_string(pairs),
         pairs == 0 ? "-" : Fmt("%.0f%%", 100.0 * decided / pairs),
         decided == 0 ? "-" : Fmt("%.0f%%", 100.0 * correct / decided),
         pairs == 0 ? "-" : Fmt("%.0f%%", 100.0 * correct / pairs)});
  }
  table.Print();
  std::printf(
      "\nExpected shape: denser datasets supply more observers, so the\n"
      "decision rate and accuracy rise with p; decided votes are much\n"
      "better than coin flips, which is what lets the initial sort cut\n"
      "exact comparisons (§6.2's third reason).\n");
  json.Write();
  return 0;
}
