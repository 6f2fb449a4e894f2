// Request deadlines and their thread-local propagation.
//
// A serving system must bound how long any single request can hold a worker:
// the front-end (serve/) stamps every admitted request with a Deadline, and
// the query loops underneath (query/*, SortByDistance's refinement,
// RunDijkstraBounded) check it at phase boundaries, abandoning work and
// returning a typed partial result once it passes.
//
// Propagation is ambient rather than parameterized: a DeadlineScope pins the
// deadline for the current thread, and DeadlineExpired() consults it. This
// keeps the dozens of existing query entry points signature-stable — code
// that never installs a scope sees an infinite deadline and behaves exactly
// as before. The cost of a check is one steady_clock read, and only when a
// finite deadline is actually installed; callers in tight loops additionally
// throttle (check every N iterations).
//
// Internal computations whose results outlive the request (e.g. the cached
// decode-failure fallback rows in SignatureIndex) must shield themselves
// with DeadlineScope(Deadline::Infinite()) — a deadline-truncated value must
// never be cached.
#ifndef DSIG_UTIL_DEADLINE_H_
#define DSIG_UTIL_DEADLINE_H_

#include <cstdint>

namespace dsig {

class Deadline {
 public:
  // Default-constructed deadlines never expire.
  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }

  // Expires `ms` milliseconds from now (clamped to now for ms <= 0, i.e.
  // already expired).
  static Deadline AfterMillis(double ms);

  // Expires at an absolute steady-clock nanosecond stamp (see NowNanos).
  static Deadline AtNanos(uint64_t ns) { return Deadline(ns); }

  bool infinite() const { return ns_ == kInfiniteNanos; }
  bool expired() const { return !infinite() && NowNanos() >= ns_; }

  // Milliseconds until expiry; <= 0 when expired, a very large value when
  // infinite.
  double remaining_millis() const;

  uint64_t raw_nanos() const { return ns_; }

  // Monotonic nanoseconds (steady_clock), the time base deadlines live on.
  static uint64_t NowNanos();

 private:
  static constexpr uint64_t kInfiniteNanos = ~uint64_t{0};
  explicit Deadline(uint64_t ns) : ns_(ns) {}
  uint64_t ns_ = kInfiniteNanos;
};

// The calling thread's ambient deadline (infinite unless a DeadlineScope is
// live).
const Deadline& CurrentDeadline();

// Installs `deadline` as the thread's ambient deadline for the scope's
// lifetime, restoring the previous one on destruction (scopes nest; an inner
// scope may tighten or — for cache-filling shields — loosen).
class DeadlineScope {
 public:
  explicit DeadlineScope(const Deadline& deadline);
  DeadlineScope(const DeadlineScope&) = delete;
  DeadlineScope& operator=(const DeadlineScope&) = delete;
  ~DeadlineScope();

 private:
  Deadline saved_;
};

// True when the ambient deadline has passed. Free (no clock read) when the
// ambient deadline is infinite, so instrumented loops cost nothing for
// callers that never set one.
bool DeadlineExpired();

// Test seam: force DeadlineExpired() to start returning true after `n` more
// true clock evaluations on this thread (n = 0 -> the very next check), so
// mid-query expiry is deterministic. Only applies while a *finite* ambient
// deadline is installed, mirroring production. Negative disables (default).
void SetDeadlineCheckFailAfter(int n);

}  // namespace dsig

#endif  // DSIG_UTIL_DEADLINE_H_
