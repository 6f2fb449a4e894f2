#include "query/planner.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "core/hub_labels.h"
#include "core/row_stage.h"
#include "graph/dijkstra.h"
#include "obs/op_counters.h"
#include "obs/trace.h"
#include "util/deadline.h"

namespace dsig {
namespace {

std::atomic<int> g_no_labels_override{0};

// DSIG_FORCE_NO_LABELS, read once like the dispatcher's DSIG_FORCE_SCALAR:
// set/non-empty/non-"0" pins every planner decision off the label tier for
// the process lifetime.
bool ForceNoLabelsEnv() {
  static const bool forced = [] {
    const char* v = std::getenv("DSIG_FORCE_NO_LABELS");
    return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
  }();
  return forced;
}

// Demotion accounting: a request was label-eligible (a tier is attached)
// but the planner sent it elsewhere — stale latch, force-off pin, decode
// failure, or the cost model preferring the hop count.
void CountDemotion(const SignatureIndex& index) {
  if (index.hub_labels() != nullptr) ++GlobalOpCounters().label_demotions;
}

}  // namespace

bool LabelsUsable(const SignatureIndex& index) {
  if (ForceNoLabelsEnv()) return false;
  if (g_no_labels_override.load(std::memory_order_relaxed) > 0) return false;
  const HubLabels* labels = index.hub_labels();
  if (labels == nullptr || labels->stale()) return false;
  // Last: ready() triggers the lazy blob decode, which the pins above must
  // be able to avoid entirely.
  return labels->ready();
}

ExactRouteCostModel PlannerSeed(const SignatureIndex& index) {
  ExactRouteCostModel model;
  const HubLabels* labels = index.hub_labels();
  if (labels != nullptr && labels->ready()) {
    model.avg_label_entries = labels->stats().avg_label_entries;
    model.mean_edge_weight = labels->mean_edge_weight();
  }
  return model;
}

ExactRoute PlanObjectRoute(const SignatureIndex& index,
                           const DistanceRange* hint) {
  if (!LabelsUsable(index)) return ExactRoute::kChase;
  // No category hint means the caller has not read the row; the label route
  // answers without ever touching it, so it wins outright.
  if (hint == nullptr) return ExactRoute::kLabels;
  const ExactRouteCostModel model = PlannerSeed(index);
  // The category lower bound is the conservative distance estimate: every
  // chase toward this object walks at least lb worth of edges (ub may be
  // infinite in the open tail category, so it cannot anchor a cost).
  const double expected = static_cast<double>(hint->lb);
  return model.ChaseCost(expected) >= model.LabelCost() ? ExactRoute::kLabels
                                                        : ExactRoute::kChase;
}

Weight RoutedObjectDistance(const SignatureIndex& index, NodeId n,
                            uint32_t object, const SignatureEntry* initial) {
  const ReadSnapshot snapshot(index.epoch_gate());
  DistanceRange hint;
  const DistanceRange* hint_ptr = nullptr;
  if (initial != nullptr && initial->IsResolved()) {
    hint = index.partition().RangeOf(initial->category);
    hint_ptr = &hint;
  }
  const ExactRoute route = PlanObjectRoute(index, hint_ptr);
  if (route == ExactRoute::kLabels) {
    ++GlobalOpCounters().label_distances;
    return index.hub_labels()->Distance(n, index.object_node(object));
  }
  CountDemotion(index);
  RetrievalCursor cursor(&index, n, object, initial);
  return cursor.RetrieveExact();
}

Weight RoutedNodeDistance(const SignatureIndex& index, NodeId u, NodeId v) {
  if (LabelsUsable(index)) {
    ++GlobalOpCounters().label_distances;
    return index.hub_labels()->Distance(u, v);
  }
  CountDemotion(index);
  const obs::Span span(obs::Phase::kDijkstraFallback);
  return DijkstraDistance(index.graph(), u, v);
}

void RoutedSortByDistance(const SignatureIndex& index, NodeId n,
                          const RowStage& stage,
                          std::vector<uint32_t>* objects) {
  if (!LabelsUsable(index)) {
    CountDemotion(index);
    SortByDistance(index, n, stage, objects);
    return;
  }
  const obs::Span span(obs::Phase::kSort);
  const ReadSnapshot snapshot(index.epoch_gate());
  // Phase 1 is SortByDistance's own approximate pass — the observer
  // heuristic decides the order of objects the exact refinement later
  // proves tied, so the final permutation is bit-identical only because
  // both sorts run this same pass.
  if (!ApproximateSortByDistance(index, n, stage, objects) ||
      DeadlineExpired()) {
    return;
  }
  std::vector<uint32_t>& objs = *objects;
  // Phase 2: Algorithm 4's cursor refinement is a stable sort of that
  // permutation by exact distance (it swaps only strictly-greater adjacent
  // pairs). A stable sort keyed by label distances is therefore the same
  // permutation — at a merge per object instead of a page walk per compare.
  const HubLabels& labels = *index.hub_labels();
  struct Keyed {
    Weight d;
    uint32_t object;
  };
  std::vector<Keyed> keyed(objs.size());
  for (size_t i = 0; i < objs.size(); ++i) {
    keyed[i] = {labels.Distance(n, index.object_node(objs[i])), objs[i]};
  }
  GlobalOpCounters().label_distances += objs.size();
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const Keyed& a, const Keyed& b) { return a.d < b.d; });
  for (size_t i = 0; i < objs.size(); ++i) objs[i] = keyed[i].object;
}

NoLabelsOverride::NoLabelsOverride() {
  g_no_labels_override.fetch_add(1, std::memory_order_relaxed);
}

NoLabelsOverride::~NoLabelsOverride() {
  g_no_labels_override.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace dsig
