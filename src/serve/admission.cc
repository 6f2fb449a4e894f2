#include "serve/admission.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"

namespace dsig {
namespace serve {
namespace {

struct ClassMetrics {
  obs::Counter* admitted;
  obs::Counter* shed;
  obs::Counter* queue_timeout;
  obs::Gauge* queue_depth;
  obs::Gauge* inflight;
  obs::Histogram* queued_ms;
};

// Registry handles are created once and cached (stable pointers, see
// obs/metrics.h); names are serve.<class>.<metric>.
const ClassMetrics& MetricsFor(int c) {
  static const ClassMetrics metrics[kNumWorkClasses] = {
      {
          obs::MetricsRegistry::Global().GetCounter("serve.query.admitted"),
          obs::MetricsRegistry::Global().GetCounter("serve.query.shed"),
          obs::MetricsRegistry::Global().GetCounter("serve.query.queue_timeout"),
          obs::MetricsRegistry::Global().GetGauge("serve.query.queue_depth"),
          obs::MetricsRegistry::Global().GetGauge("serve.query.inflight"),
          obs::MetricsRegistry::Global().GetHistogram("serve.query.queued_ms"),
      },
      {
          obs::MetricsRegistry::Global().GetCounter("serve.update.admitted"),
          obs::MetricsRegistry::Global().GetCounter("serve.update.shed"),
          obs::MetricsRegistry::Global().GetCounter(
              "serve.update.queue_timeout"),
          obs::MetricsRegistry::Global().GetGauge("serve.update.queue_depth"),
          obs::MetricsRegistry::Global().GetGauge("serve.update.inflight"),
          obs::MetricsRegistry::Global().GetHistogram("serve.update.queued_ms"),
      },
  };
  return metrics[c];
}

}  // namespace

const char* WorkClassName(WorkClass work_class) {
  return work_class == WorkClass::kQuery ? "query" : "update";
}

double RetryAfterHintMs(double base_ms, size_t queued, size_t max_queue) {
  if (max_queue == 0) return 2.0 * base_ms;
  const double fill = static_cast<double>(std::min(queued, max_queue)) /
                      static_cast<double>(max_queue);
  return base_ms * (1.0 + fill);
}

// Per-tenant queues, DWRR accounting, token bucket, and cached metric
// handles. Metric names come from the bounded tenant config, never from the
// wire, so cardinality is fixed at construction.
struct AdmissionController::TenantState {
  explicit TenantState(const TenantConfig& config_in) : config(config_in) {
    config.weight = std::max(config.weight, 0.01);
    if (config.rate_qps > 0) {
      burst = config.burst > 0 ? config.burst : std::max(config.rate_qps, 1.0);
      tokens = burst;
      last_refill_ns = Deadline::NowNanos();
    }
    auto& reg = obs::MetricsRegistry::Global();
    const std::string prefix = "serve.tenant." + config.name + ".";
    admitted = reg.GetCounter(prefix + "admitted");
    shed = reg.GetCounter(prefix + "shed");
    rate_limited = reg.GetCounter(prefix + "rate_limited");
    queue_timeout = reg.GetCounter(prefix + "queue_timeout");
    queued_ms = reg.GetHistogram(prefix + "queued_ms");
  }

  TenantConfig config;
  std::deque<Waiter*> waiters[kNumWorkClasses];
  double deficit[kNumWorkClasses] = {};

  // Token bucket; meaningful only when config.rate_qps > 0.
  double burst = 0;
  double tokens = 0;
  uint64_t last_refill_ns = 0;

  obs::Counter* admitted = nullptr;
  obs::Counter* shed = nullptr;
  obs::Counter* rate_limited = nullptr;
  obs::Counter* queue_timeout = nullptr;
  obs::Histogram* queued_ms = nullptr;
};

AdmissionController::AdmissionController(const Options& options)
    : options_(options) {
  if (options_.tenants.empty()) options_.tenants.push_back(TenantConfig{});
  tenants_.reserve(options_.tenants.size());
  for (const TenantConfig& config : options_.tenants) {
    tenants_.push_back(std::make_unique<TenantState>(config));
  }
}

AdmissionController::~AdmissionController() = default;

uint32_t AdmissionController::ResolveTenant(uint32_t tenant_id) const {
  return tenant_id < tenants_.size() ? tenant_id : 0;
}

size_t AdmissionController::num_tenants() const { return tenants_.size(); }

const std::string& AdmissionController::TenantName(uint32_t tenant_id) const {
  return tenants_[ResolveTenant(tenant_id)]->config.name;
}

void AdmissionController::PublishGauges(int c) {
  MetricsFor(c).queue_depth->Set(static_cast<double>(total_queued_[c]));
  MetricsFor(c).inflight->Set(static_cast<double>(inflight_[c]));
}

void AdmissionController::RefillBucket(TenantState* tenant) {
  const uint64_t now_ns = Deadline::NowNanos();
  const double elapsed_s =
      static_cast<double>(now_ns - tenant->last_refill_ns) / 1e9;
  tenant->last_refill_ns = now_ns;
  tenant->tokens = std::min(
      tenant->burst, tenant->tokens + elapsed_s * tenant->config.rate_qps);
}

void AdmissionController::AdvanceCursor(int c) {
  cursor_[c] = (cursor_[c] + 1) % tenants_.size();
  credited_[c] = false;
}

AdmissionController::Waiter* AdmissionController::PickNext(int c) {
  // Classic DWRR: visit queues round-robin, credit each non-empty queue its
  // quantum once per visit, serve while the deficit covers unit-cost
  // requests. Terminates because total_queued_[c] > 0 guarantees a non-empty
  // queue whose deficit grows by >= 0.01 per rotation.
  for (;;) {
    TenantState& tenant = *tenants_[cursor_[c]];
    auto& queue = tenant.waiters[c];
    if (queue.empty()) {
      // An idle tenant must not bank credit for later bursts.
      tenant.deficit[c] = 0;
      AdvanceCursor(c);
      continue;
    }
    if (!credited_[c]) {
      tenant.deficit[c] += tenant.config.weight;
      credited_[c] = true;
    }
    if (tenant.deficit[c] >= 1.0) {
      tenant.deficit[c] -= 1.0;
      Waiter* waiter = queue.front();
      queue.pop_front();
      return waiter;
    }
    AdvanceCursor(c);
  }
}

void AdmissionController::Schedule(int c) {
  // Hand freed slots to waiters in DWRR order. Incrementing inflight and
  // setting granted under the lock transfers the slot before the waiter
  // wakes, so a slot can never be double-claimed by the fast path.
  const size_t cap = BudgetFor(static_cast<WorkClass>(c)).max_inflight;
  while (!closed_ && inflight_[c] < cap && total_queued_[c] > 0) {
    Waiter* waiter = PickNext(c);
    --total_queued_[c];
    ++inflight_[c];
    waiter->granted = true;
    waiter->cv.notify_one();
  }
  PublishGauges(c);
}

AdmissionController::AdmitResult AdmissionController::Admit(
    WorkClass work_class, uint32_t tenant_id, const Deadline& deadline) {
  const int c = static_cast<int>(work_class);
  const ClassBudget& budget = BudgetFor(work_class);
  const uint64_t enter_ns = Deadline::NowNanos();

  std::unique_lock<std::mutex> lock(mu_);
  AdmitResult result;
  result.tenant = ResolveTenant(tenant_id);
  TenantState& tenant = *tenants_[result.tenant];
  if (closed_) {
    result.outcome = AdmitOutcome::kShuttingDown;
    return result;
  }

  // Rate limit first: a tenant over its contracted rate sheds before it can
  // occupy queue space, and the hint is exactly when its next token lands.
  if (tenant.config.rate_qps > 0) {
    RefillBucket(&tenant);
    if (tenant.tokens < 1.0) {
      result.outcome = AdmitOutcome::kShed;
      result.rate_limited = true;
      result.retry_after_ms =
          (1.0 - tenant.tokens) / tenant.config.rate_qps * 1000.0;
      MetricsFor(c).shed->Add(1);
      tenant.shed->Add(1);
      tenant.rate_limited->Add(1);
      return result;
    }
    tenant.tokens -= 1.0;
  }

  auto& queue = tenant.waiters[c];
  if (inflight_[c] < budget.max_inflight && total_queued_[c] == 0) {
    // Fast path only when nobody is queued anywhere in this class —
    // otherwise a newcomer would jump the scheduler's fair order.
    ++inflight_[c];
    PublishGauges(c);
    result.outcome = AdmitOutcome::kAdmitted;
    result.ticket = Ticket(this, work_class);
    result.queued_ms =
        static_cast<double>(Deadline::NowNanos() - enter_ns) / 1e6;
    MetricsFor(c).admitted->Add(1);
    MetricsFor(c).queued_ms->Record(result.queued_ms);
    tenant.admitted->Add(1);
    tenant.queued_ms->Record(result.queued_ms);
    return result;
  }
  if (queue.size() >= budget.max_queue) {
    // This tenant's queue is full: shed instantly, hinting a backoff
    // proportional to how deep ITS overload is (other tenants unaffected).
    result.outcome = AdmitOutcome::kShed;
    result.retry_after_ms = RetryAfterHintMs(options_.retry_after_base_ms,
                                             queue.size(), budget.max_queue);
    MetricsFor(c).shed->Add(1);
    tenant.shed->Add(1);
    return result;
  }

  Waiter self;
  queue.push_back(&self);
  ++total_queued_[c];
  // Self-healing: if a slot is actually free (possible when this waiter is
  // the first into a just-emptied system), the scheduler grants it now and
  // the wait below falls straight through.
  Schedule(c);
  const auto ready = [&] { return self.granted || closed_; };
  bool woke = true;
  if (deadline.infinite()) {
    self.cv.wait(lock, ready);
  } else {
    // Wait no longer than the request's own budget: a request whose
    // deadline passes in the queue must not consume an execution slot.
    const double remaining = deadline.remaining_millis();
    woke = remaining > 0 &&
           self.cv.wait_for(
               lock, std::chrono::duration<double, std::milli>(remaining),
               ready);
  }
  result.queued_ms = static_cast<double>(Deadline::NowNanos() - enter_ns) / 1e6;
  if (self.granted) {
    // The scheduler already moved the slot to us (inflight incremented,
    // dequeued). Granted-then-closed still proceeds: admitted requests keep
    // their slots through the drain.
    result.outcome = AdmitOutcome::kAdmitted;
    result.ticket = Ticket(this, work_class);
    MetricsFor(c).admitted->Add(1);
    MetricsFor(c).queued_ms->Record(result.queued_ms);
    tenant.admitted->Add(1);
    tenant.queued_ms->Record(result.queued_ms);
    return result;
  }
  // Timed out or shutting down: still queued (granted is only ever set with
  // the dequeue, under this lock), so unlink ourselves.
  queue.erase(std::find(queue.begin(), queue.end(), &self));
  --total_queued_[c];
  PublishGauges(c);
  if (!woke) {
    result.outcome = AdmitOutcome::kQueueTimeout;
    MetricsFor(c).queue_timeout->Add(1);
    tenant.queue_timeout->Add(1);
  } else {
    result.outcome = AdmitOutcome::kShuttingDown;
  }
  return result;
}

void AdmissionController::ReleaseSlot(WorkClass work_class) {
  const int c = static_cast<int>(work_class);
  std::lock_guard<std::mutex> lock(mu_);
  --inflight_[c];
  Schedule(c);
}

void AdmissionController::Ticket::Release() {
  if (controller_ != nullptr) {
    controller_->ReleaseSlot(work_class_);
    controller_ = nullptr;
  }
}

void AdmissionController::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  for (auto& tenant : tenants_) {
    for (int c = 0; c < kNumWorkClasses; ++c) {
      for (Waiter* waiter : tenant->waiters[c]) waiter->cv.notify_one();
    }
  }
}

size_t AdmissionController::queue_depth(WorkClass work_class) const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_queued_[static_cast<int>(work_class)];
}

size_t AdmissionController::queue_depth(WorkClass work_class,
                                        uint32_t tenant_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_[ResolveTenant(tenant_id)]
      ->waiters[static_cast<int>(work_class)]
      .size();
}

size_t AdmissionController::inflight(WorkClass work_class) const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_[static_cast<int>(work_class)];
}

bool AdmissionController::QueuePressureAtLeast(WorkClass work_class,
                                               uint32_t tenant_id,
                                               double fraction) const {
  const int c = static_cast<int>(work_class);
  const size_t max_queue = std::max<size_t>(BudgetFor(work_class).max_queue, 1);
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<double>(
             tenants_[ResolveTenant(tenant_id)]->waiters[c].size()) >=
         fraction * static_cast<double>(max_queue);
}

}  // namespace serve
}  // namespace dsig
