// Single-flight request coalescing for identical hot queries.
//
// Under a hot-key workload, many concurrent connections ask the exact same
// question; executing each one independently multiplies queue pressure for
// zero information. The single-flight idiom collapses them: the first
// arrival for a key becomes the LEADER and executes normally (admission,
// degradation, the lot); everyone else arriving while the flight is open
// becomes a FOLLOWER and parks until the leader publishes its response —
// consuming no admission slot at all. Followers keep their own deadlines: a
// follower whose budget expires before the leader finishes gets a
// DEADLINE_EXCEEDED, not a free extension.
//
// The key is the canonical encoding of the request — the frame bytes with
// per-request identity (id, trace id, deadline, tenant) zeroed — so "same
// query" is defined by the wire format itself, not a hand-maintained field
// list. Only idempotent reads (knn/range/join) are coalescible; updates and
// meta requests never share results.
//
// Leaders publish through an RAII guard: every exit path either publishes a
// response or abandons the flight, so followers can never park forever on a
// leader that errored out. The server publishes only complete exact answers:
// the key ignores the tenant, but the category-only (overload) decision is
// made per tenant, so a leader that degraded abandons instead.
#ifndef DSIG_SERVE_COALESCE_H_
#define DSIG_SERVE_COALESCE_H_

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "serve/protocol.h"
#include "util/deadline.h"

namespace dsig {
namespace serve {

// True for request types whose responses may be shared across requesters.
bool Coalescible(const Request& request);

// The canonical-bytes key: request encoded with id / trace_id / deadline_ms /
// tenant_id zeroed. Two requests with equal keys would produce bit-identical
// answer payloads.
std::string CoalesceKey(const Request& request);

class SingleFlight {
 public:
  struct JoinResult {
    bool leader = false;    // caller must execute and Publish/Abandon
    bool ready = false;     // follower: `response` holds the leader's answer
    Response response;      // valid iff ready; identity fields are the
                            // LEADER's — the caller re-stamps id/trace/tenant
  };

  // Joins the flight for `key`. The first caller in becomes the leader and
  // returns immediately; later callers block until the leader publishes,
  // abandons, or their own `deadline` passes (ready = false).
  JoinResult Join(const std::string& key, const Deadline& deadline);

  // Leader hand-off: wakes all followers with the response / with nothing,
  // and closes the flight so the next arrival starts a fresh one.
  void Publish(const std::string& key, const Response& response);
  void Abandon(const std::string& key);

  // Open flights right now (tests / stats).
  size_t OpenFlights() const;

 private:
  struct Flight {
    std::condition_variable cv;
    bool done = false;       // published or abandoned
    bool have_response = false;
    Response response;
  };

  mutable std::mutex mu_;
  // Keyed by canonical bytes. shared_ptr: Publish erases the map entry while
  // followers still hold the flight to copy the response out.
  std::map<std::string, std::shared_ptr<Flight>> flights_;
};

// RAII leader obligation: constructed by the leader, destroyed on every exit
// path. If the leader never published (threw, early-returned), the flight is
// abandoned so followers retry on their own instead of hanging.
class LeaderGuard {
 public:
  LeaderGuard(SingleFlight* flights, std::string key)
      : flights_(flights), key_(std::move(key)) {}
  LeaderGuard(const LeaderGuard&) = delete;
  LeaderGuard& operator=(const LeaderGuard&) = delete;
  ~LeaderGuard() {
    if (flights_ != nullptr) flights_->Abandon(key_);
  }

  void Publish(const Response& response) {
    flights_->Publish(key_, response);
    flights_ = nullptr;
  }

 private:
  SingleFlight* flights_;
  std::string key_;
};

}  // namespace serve
}  // namespace dsig

#endif  // DSIG_SERVE_COALESCE_H_
