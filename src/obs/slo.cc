#include "obs/slo.h"

#include <algorithm>

#include "obs/json.h"

namespace dsig {
namespace obs {

const char* SloStateName(SloState state) {
  switch (state) {
    case SloState::kOk:
      return "ok";
    case SloState::kWarning:
      return "warning";
    case SloState::kCritical:
      return "critical";
  }
  return "unknown";
}

namespace {

// A ring sized so the slow window always fits under the num_slots - 1
// snapshot cap, with one spare slot for the live interval.
WindowOptions RingFor(const SloWindows& windows) {
  const uint64_t slot_ns = std::max<uint64_t>(windows.slot_ns, 1);
  const uint64_t span =
      (std::max(windows.slow_ns, windows.fast_ns) + slot_ns - 1) / slot_ns;
  return {.slot_ns = slot_ns,
          .num_slots =
              static_cast<int>(std::min<uint64_t>(span + 2, 1 << 12))};
}

double BurnRate(uint64_t total, uint64_t bad, double availability) {
  if (total == 0) return 0.0;
  const double error_budget = std::clamp(1.0 - availability, 1e-9, 1.0);
  return (static_cast<double>(bad) / static_cast<double>(total)) /
         error_budget;
}

}  // namespace

SloEngine::ClassState::ClassState(const SloObjective& objective_in,
                                  const WindowOptions& ring)
    : objective(objective_in),
      total(ring),
      bad(ring),
      latency(ring) {}

SloEngine::SloEngine(std::vector<SloObjective> objectives,
                     const SloWindows& windows)
    : windows_(windows) {
  windows_.slot_ns = std::max<uint64_t>(windows_.slot_ns, 1);
  windows_.fast_ns = std::max(windows_.fast_ns, windows_.slot_ns);
  windows_.slow_ns = std::max(windows_.slow_ns, windows_.fast_ns);
  const WindowOptions ring = RingFor(windows_);
  classes_.reserve(objectives.size());
  for (SloObjective& objective : objectives) {
    classes_.push_back(std::make_unique<ClassState>(objective, ring));
  }
}

int SloEngine::ClassIndex(const std::string& name) const {
  for (size_t i = 0; i < classes_.size(); ++i) {
    if (classes_[i]->objective.name == name) return static_cast<int>(i);
  }
  return -1;
}

bool SloEngine::RecordAt(int class_index, double latency_ms, bool ok,
                         bool executed, uint64_t now_ns) {
  if (class_index < 0 ||
      static_cast<size_t>(class_index) >= classes_.size()) {
    return false;
  }
  ClassState& c = *classes_[static_cast<size_t>(class_index)];
  const bool breach = !ok || latency_ms > c.objective.latency_budget_ms;
  c.total.AddAt(1, now_ns);
  if (breach) c.bad.AddAt(1, now_ns);
  if (executed) {
    c.latency.RecordAt(latency_ms, now_ns);
    c.lifetime.Record(latency_ms);
  }
  return breach;
}

SloClassHealth SloEngine::HealthAt(int class_index, uint64_t now_ns) const {
  const ClassState& c = *classes_[static_cast<size_t>(class_index)];
  SloClassHealth h;
  h.name = c.objective.name;
  h.latency_budget_ms = c.objective.latency_budget_ms;
  h.availability = c.objective.availability;
  h.fast_total = c.total.SumWindowAt(windows_.fast_ns, now_ns);
  h.fast_bad = c.bad.SumWindowAt(windows_.fast_ns, now_ns);
  h.slow_total = c.total.SumWindowAt(windows_.slow_ns, now_ns);
  h.slow_bad = c.bad.SumWindowAt(windows_.slow_ns, now_ns);
  h.fast_burn = BurnRate(h.fast_total, h.fast_bad, c.objective.availability);
  h.slow_burn = BurnRate(h.slow_total, h.slow_bad, c.objective.availability);
  if (h.fast_burn >= windows_.critical_burn &&
      h.slow_burn >= windows_.critical_burn) {
    h.state = SloState::kCritical;
  } else if (h.fast_burn >= windows_.warn_burn &&
             h.slow_burn >= windows_.warn_burn) {
    h.state = SloState::kWarning;
  } else {
    h.state = SloState::kOk;
  }
  Histogram window;
  c.latency.SnapshotWindowAt(windows_.slow_ns, now_ns, &window);
  h.window_p50_ms = window.Percentile(50);
  h.window_p99_ms = window.Percentile(99);
  h.window_count = window.Count();
  h.lifetime_p99_ms = c.lifetime.Percentile(99);
  h.lifetime_count = c.lifetime.Count();
  return h;
}

std::vector<SloClassHealth> SloEngine::ReportAllAt(uint64_t now_ns) const {
  std::vector<SloClassHealth> report;
  report.reserve(classes_.size());
  for (size_t i = 0; i < classes_.size(); ++i) {
    report.push_back(HealthAt(static_cast<int>(i), now_ns));
  }
  return report;
}

SloState SloEngine::Overall(const std::vector<SloClassHealth>& classes) {
  SloState worst = SloState::kOk;
  for (const SloClassHealth& h : classes) {
    if (static_cast<uint8_t>(h.state) > static_cast<uint8_t>(worst)) {
      worst = h.state;
    }
  }
  return worst;
}

std::string SloEngine::ReportJsonAt(uint64_t now_ns) const {
  const std::vector<SloClassHealth> classes = ReportAllAt(now_ns);
  JsonWriter w;
  w.BeginObject();
  w.Key("windows").BeginObject();
  w.Field("fast_s", static_cast<double>(windows_.fast_ns) * 1e-9);
  w.Field("slow_s", static_cast<double>(windows_.slow_ns) * 1e-9);
  w.Field("slot_s", static_cast<double>(windows_.slot_ns) * 1e-9);
  w.Field("critical_burn", windows_.critical_burn);
  w.Field("warn_burn", windows_.warn_burn);
  w.EndObject();
  w.Field("overall", SloStateName(Overall(classes)));
  w.Key("classes").BeginArray();
  for (const SloClassHealth& h : classes) {
    w.BeginObject();
    w.Field("class", h.name);
    w.Field("state", SloStateName(h.state));
    w.Field("latency_budget_ms", h.latency_budget_ms);
    w.Field("availability", h.availability);
    w.Field("fast_burn", h.fast_burn);
    w.Field("slow_burn", h.slow_burn);
    w.Field("fast_total", h.fast_total);
    w.Field("fast_bad", h.fast_bad);
    w.Field("slow_total", h.slow_total);
    w.Field("slow_bad", h.slow_bad);
    w.Field("window_p50_ms", h.window_p50_ms);
    w.Field("window_p99_ms", h.window_p99_ms);
    w.Field("window_count", h.window_count);
    w.Field("lifetime_p99_ms", h.lifetime_p99_ms);
    w.Field("lifetime_count", h.lifetime_count);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

}  // namespace obs
}  // namespace dsig
