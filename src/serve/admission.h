// Admission control: per-tenant bounded queues drained by deficit-weighted
// round-robin, with per-tenant token-bucket rate limits.
//
// The front-end's overload story is queue-then-shed, but fairness is the
// point: a single flooding client must not starve everyone else. Each
// workload class (queries vs updates) has a budget of concurrent executions;
// in front of each budget sits one bounded wait queue PER TENANT, and a
// deficit-weighted-round-robin scheduler decides which tenant's waiter gets
// the next freed slot:
//
//   * a free execution slot with nobody queued admits immediately;
//   * otherwise the caller (a connection thread — the block is what
//     propagates backpressure down the TCP stream) parks in its tenant's
//     queue until the scheduler hands it a slot, its deadline passes, or the
//     controller shuts down;
//   * a full per-tenant queue sheds instantly with a RETRY_AFTER hint scaled
//     by that tenant's queue pressure — the flooder's queue fills and sheds
//     while other tenants' queues stay shallow;
//   * a tenant over its token-bucket rate sheds before it ever queues, with
//     a hint equal to the time until its next token.
//
// DWRR (Shreedhar & Varghese '96): each tenant carries a deficit counter;
// when the round-robin cursor visits a non-empty queue it credits the
// tenant's quantum (= its configured weight, request cost = 1.0) once per
// visit and drains requests while the deficit covers them. Weights are
// therefore long-run slot shares: weight 2 gets twice the throughput of
// weight 1 under contention, and an idle tenant's deficit resets so it
// cannot hoard credit.
//
// Every transition is counted in the metrics registry, both per class
// (serve.<class>.*, as before) and per tenant (serve.tenant.<name>.*).
// Unknown tenant ids fold into the default tenant so hostile clients cannot
// mint unbounded metric names or per-tenant state.
#ifndef DSIG_SERVE_ADMISSION_H_
#define DSIG_SERVE_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/deadline.h"

namespace dsig {
namespace serve {

enum class WorkClass : int { kQuery = 0, kUpdate = 1 };
inline constexpr int kNumWorkClasses = 2;

const char* WorkClassName(WorkClass work_class);

// Outcome of an admission attempt.
enum class AdmitOutcome {
  kAdmitted,       // caller holds an execution slot; release via Ticket
  kShed,           // queue full or rate-limited — reply RETRY_AFTER
  kQueueTimeout,   // deadline passed while queued — reply DEADLINE_EXCEEDED
  kShuttingDown,   // controller closed — reply SHUTTING_DOWN
};

// RETRY_AFTER hint for a shed at `queued` waiters of `max_queue` capacity:
// base * (1 + fill) where fill = queued/max_queue clamped to [0, 1], so the
// hint runs base..2*base across the pressure curve. A zero-capacity queue is
// permanently full and hints 2*base — the old formula collapsed that case to
// plain base, telling clients to retry soonest exactly where the server can
// least absorb it.
double RetryAfterHintMs(double base_ms, size_t queued, size_t max_queue);

// One fair-share principal. Tenant ids on the wire are indexes into
// Options::tenants; anything out of range folds into tenant 0.
struct TenantConfig {
  std::string name = "default";
  double weight = 1.0;   // DWRR quantum; long-run slot share under contention
  double rate_qps = 0;   // token-bucket refill rate; 0 = unlimited
  double burst = 0;      // bucket depth; 0 = max(rate_qps, 1)
};

class AdmissionController {
 public:
  struct ClassBudget {
    size_t max_inflight = 8;  // concurrent executions
    size_t max_queue = 32;    // waiters PER TENANT beyond that before shedding
  };
  struct Options {
    ClassBudget query;
    ClassBudget update{/*max_inflight=*/1, /*max_queue=*/64};
    double retry_after_base_ms = 25;  // see RetryAfterHintMs
    // Fair-share principals; tenant id = index. Empty = one default tenant
    // (single-tenant deployments behave exactly like the pre-tenant code).
    std::vector<TenantConfig> tenants;
  };

  // RAII execution slot. Default-constructed tickets hold nothing.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept { *this = std::move(other); }
    Ticket& operator=(Ticket&& other) noexcept {
      Release();
      controller_ = other.controller_;
      work_class_ = other.work_class_;
      other.controller_ = nullptr;
      return *this;
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket() { Release(); }

    bool held() const { return controller_ != nullptr; }
    void Release();

   private:
    friend class AdmissionController;
    Ticket(AdmissionController* controller, WorkClass work_class)
        : controller_(controller), work_class_(work_class) {}
    AdmissionController* controller_ = nullptr;
    WorkClass work_class_ = WorkClass::kQuery;
  };

  struct AdmitResult {
    AdmitOutcome outcome = AdmitOutcome::kShed;
    Ticket ticket;               // held iff outcome == kAdmitted
    double retry_after_ms = 0;   // meaningful for kShed
    double queued_ms = 0;        // time spent waiting in the queue
    uint32_t tenant = 0;         // resolved (folded) tenant id
    bool rate_limited = false;   // kShed came from the token bucket
  };

  explicit AdmissionController(const Options& options);
  ~AdmissionController();  // out of line: TenantState is incomplete here

  // Blocks (bounded by `deadline` and the tenant's queue budget) until the
  // scheduler hands over an execution slot. Never blocks when the tenant's
  // queue is already full or its token bucket is empty.
  AdmitResult Admit(WorkClass work_class, uint32_t tenant_id,
                    const Deadline& deadline);
  // Single-tenant convenience: admits as the default tenant.
  AdmitResult Admit(WorkClass work_class, const Deadline& deadline) {
    return Admit(work_class, 0, deadline);
  }

  // Wakes every queued waiter with kShuttingDown and refuses all further
  // admissions. Already-admitted requests keep their slots (the drain).
  void Close();

  // Folds an on-the-wire tenant id into a configured one.
  uint32_t ResolveTenant(uint32_t tenant_id) const;
  size_t num_tenants() const;
  const std::string& TenantName(uint32_t tenant_id) const;

  size_t queue_depth(WorkClass work_class) const;  // total across tenants
  size_t queue_depth(WorkClass work_class, uint32_t tenant_id) const;
  size_t inflight(WorkClass work_class) const;

  // True when the tenant's queue is at or beyond `fraction` of its bound —
  // the planner's overload-degradation signal. Per tenant, so one tenant's
  // flood does not degrade everyone else's answers.
  bool QueuePressureAtLeast(WorkClass work_class, uint32_t tenant_id,
                            double fraction) const;

 private:
  // A parked connection thread; lives on the waiter's stack, linked into its
  // tenant's deque. Each waiter has its own condition variable because the
  // scheduler grants slots to specific waiters — a shared cv would thundering-
  // herd every connection thread per freed slot.
  struct Waiter {
    std::condition_variable cv;
    bool granted = false;
  };

  struct TenantState;

  const ClassBudget& BudgetFor(WorkClass work_class) const {
    return work_class == WorkClass::kQuery ? options_.query : options_.update;
  }
  void ReleaseSlot(WorkClass work_class);
  void PublishGauges(int c);
  void Schedule(int c);      // grant freed slots to waiters, DWRR order
  Waiter* PickNext(int c);   // requires total_queued_[c] > 0
  void AdvanceCursor(int c);
  void RefillBucket(TenantState* tenant);

  Options options_;
  mutable std::mutex mu_;
  bool closed_ = false;
  std::vector<std::unique_ptr<TenantState>> tenants_;
  size_t inflight_[kNumWorkClasses] = {};
  size_t total_queued_[kNumWorkClasses] = {};
  size_t cursor_[kNumWorkClasses] = {};   // DWRR position, persists across calls
  bool credited_[kNumWorkClasses] = {};   // quantum granted at cursor this visit
};

}  // namespace serve
}  // namespace dsig

#endif  // DSIG_SERVE_ADMISSION_H_
