// SLO engine: per-request-class objectives evaluated with fast/slow
// multi-window burn rates over the rolling-window metrics (obs/window.h).
//
// An objective declares, per request class ("knn", "join", ...), a latency
// budget and an availability target. A request is GOOD when it succeeded
// AND finished inside its budget; everything else (shed, deadline blown,
// error, over-budget success) burns error budget. The burn rate is
//
//   burn = (bad / total) / (1 - availability)
//
// i.e. 1.0 means "exactly consuming the allowed error budget"; 14.4 on a
// 99% objective means 14.4x the sustainable failure rate. Following the
// multi-window multi-burn-rate recipe (Google SRE workbook, scaled down to
// a single process), state is derived from TWO windows so alerts are both
// fast and non-flappy:
//
//   critical  fast AND slow windows both burn >= critical threshold
//   warning   fast AND slow windows both burn >= warn threshold
//   ok        otherwise (an empty fast window burns 0 -> recovery is
//             automatic once the bad traffic ages out)
//
// Record() additionally answers "did THIS request breach its objective" —
// the tail-sampling trigger the serve path uses for its slow-query log.
//
// The engine is the serving layer's only health source: dsig_serve's kStats
// reply embeds ReportJson, and its kSlo reply prints one line per class
// from ReportAll (serve/server.h).
//
// Thread safety: Record and the reports may run on any thread at once; a
// recorder takes a ring's rotate mutex only when it opens a new slot
// (obs/window.h). All time-taking calls have *At twins for deterministic
// tests.
#ifndef DSIG_OBS_SLO_H_
#define DSIG_OBS_SLO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/window.h"

namespace dsig {
namespace obs {

enum class SloState : uint8_t { kOk = 0, kWarning = 1, kCritical = 2 };
const char* SloStateName(SloState state);

struct SloObjective {
  std::string name;               // request class, e.g. "knn"
  double latency_budget_ms = 100;
  double availability = 0.99;     // good-request target; budget = 1 - this
};

struct SloWindows {
  uint64_t fast_ns = 10ull * 1000 * 1000 * 1000;  // 10 s
  uint64_t slow_ns = 60ull * 1000 * 1000 * 1000;  // 60 s
  uint64_t slot_ns = 1ull * 1000 * 1000 * 1000;   // 1 s ring shards
  double critical_burn = 14.4;  // SRE workbook's fast-page threshold
  double warn_burn = 6.0;
};

// Point-in-time health of one class; plain data behind ReportJson and the
// server's SLO_HEALTH / TENANT_HEALTH lines.
struct SloClassHealth {
  std::string name;
  SloState state = SloState::kOk;
  double latency_budget_ms = 0;
  double availability = 0;
  double fast_burn = 0;
  double slow_burn = 0;
  uint64_t fast_total = 0;
  uint64_t fast_bad = 0;
  uint64_t slow_total = 0;
  uint64_t slow_bad = 0;
  // Latency over the slow window vs the process lifetime — the pair that
  // shows windows moving on while the lifetime histogram never forgets.
  double window_p50_ms = 0;
  double window_p99_ms = 0;
  uint64_t window_count = 0;
  double lifetime_p99_ms = 0;
  uint64_t lifetime_count = 0;
};

class SloEngine {
 public:
  SloEngine(std::vector<SloObjective> objectives, const SloWindows& windows);

  size_t num_classes() const { return classes_.size(); }
  // -1 when no objective covers `name`.
  int ClassIndex(const std::string& name) const;
  const SloObjective& objective(int class_index) const {
    return classes_[static_cast<size_t>(class_index)]->objective;
  }
  const SloWindows& windows() const { return windows_; }

  // Records one finished request. `ok` means the server produced the
  // intended answer (not shed / not errored / deadline not blown).
  // `executed` gates the latency shards: a shed request burns availability
  // but must not pollute the latency distribution with its ~0ms turnaround.
  // Returns true when the request breached its class objective — the
  // caller's tail-sampling trigger. Out-of-range class indexes are ignored
  // (returns false).
  bool Record(int class_index, double latency_ms, bool ok, bool executed) {
    return RecordAt(class_index, latency_ms, ok, executed, MonotonicNanos());
  }
  bool RecordAt(int class_index, double latency_ms, bool ok, bool executed,
                uint64_t now_ns);

  SloClassHealth HealthAt(int class_index, uint64_t now_ns) const;
  std::vector<SloClassHealth> ReportAll() const {
    return ReportAllAt(MonotonicNanos());
  }
  std::vector<SloClassHealth> ReportAllAt(uint64_t now_ns) const;

  // Worst state across classes.
  static SloState Overall(const std::vector<SloClassHealth>& classes);

  // Machine-readable health report: {"windows": {...}, "overall": "...",
  // "classes": [...]}. The serve path embeds this in the kStats response.
  std::string ReportJson() const { return ReportJsonAt(MonotonicNanos()); }
  std::string ReportJsonAt(uint64_t now_ns) const;

 private:
  struct ClassState {
    explicit ClassState(const SloObjective& objective,
                        const WindowOptions& ring);
    SloObjective objective;
    WindowedCounter total;
    WindowedCounter bad;
    WindowedHistogram latency;  // executed requests only
    Histogram lifetime;
  };

  SloWindows windows_;
  std::vector<std::unique_ptr<ClassState>> classes_;
};

}  // namespace obs
}  // namespace dsig

#endif  // DSIG_OBS_SLO_H_
