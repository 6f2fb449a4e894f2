#include "query/planner.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "core/hub_labels.h"
#include "core/row_stage.h"
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

// Demotion accounting, in label_distances' unit: `distances` exact values
// were label-eligible (a tier is attached) but the tier could not answer
// them — stale latch, force-off pin, or decode failure.
void CountDemotions(const SignatureIndex& index, uint64_t distances) {
  if (index.hub_labels() != nullptr) {
    GlobalOpCounters().label_demotions += distances;
  }
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

Weight RoutedObjectDistance(const SignatureIndex& index, NodeId n,
                            uint32_t object, const SignatureEntry* initial) {
  const ReadSnapshot snapshot(index.epoch_gate());
  if (LabelsUsable(index)) {
    ++GlobalOpCounters().label_distances;
    return index.hub_labels()->Distance(n, index.object_node(object));
  }
  CountDemotions(index, 1);
  RetrievalCursor cursor(&index, n, object, initial);
  return cursor.RetrieveExact();
}

void RoutedSortByDistance(const SignatureIndex& index, NodeId n,
                          const RowStage& stage,
                          std::vector<uint32_t>* objects) {
  if (!LabelsUsable(index)) {
    CountDemotions(index, objects->size());
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
