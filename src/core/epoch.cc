#include "core/epoch.h"

#include <vector>

#include "util/logging.h"

namespace dsig {
namespace {

// Per-thread registry of gates this thread currently holds, for snapshot
// re-entrancy and writer self-recognition. A thread realistically holds one
// or two gates at a time (e.g. a test comparing a maintained index against a
// rebuilt one), so a linear scan of a tiny vector beats any map.
struct GateState {
  const EpochGate* gate;
  int depth;    // nested ReadSnapshot count
  bool writer;  // inside an UpdateGuard
};

thread_local std::vector<GateState> tls_gates;

GateState* FindGate(const EpochGate* gate) {
  for (GateState& state : tls_gates) {
    if (state.gate == gate) return &state;
  }
  return nullptr;
}

void EraseGate(const EpochGate* gate) {
  for (size_t i = 0; i < tls_gates.size(); ++i) {
    if (tls_gates[i].gate == gate) {
      tls_gates[i] = tls_gates.back();
      tls_gates.pop_back();
      return;
    }
  }
  DSIG_CHECK(false) << "releasing a gate this thread does not hold";
}

}  // namespace

ReadSnapshot::ReadSnapshot(EpochGate* gate) : gate_(gate) {
  if (GateState* state = FindGate(gate)) {
    // Already inside: a nested snapshot shares the outer one's shared lock,
    // and the updater reading through the ordinary paths sees its own rows
    // without taking the lock it holds exclusively.
    if (!state->writer) ++state->depth;
    return;
  }
  gate->mu_.lock_shared();
  tls_gates.push_back({gate, 1, false});
}

ReadSnapshot::~ReadSnapshot() {
  GateState* state = FindGate(gate_);
  DSIG_CHECK(state != nullptr);
  if (state->writer || --state->depth > 0) return;
  EraseGate(gate_);
  gate_->mu_.unlock_shared();
}

UpdateGuard::UpdateGuard(EpochGate* gate) : gate_(gate) {
  GateState* state = FindGate(gate);
  DSIG_CHECK(state == nullptr)
      << "UpdateGuard taken while this thread already holds the gate "
      << (state != nullptr && state->writer ? "(nested update)"
                                            : "(inside a ReadSnapshot)");
  gate->mu_.lock();
  tls_gates.push_back({gate, 0, true});
}

UpdateGuard::~UpdateGuard() {
  EraseGate(gate_);
  gate_->mu_.unlock();
}

}  // namespace dsig
