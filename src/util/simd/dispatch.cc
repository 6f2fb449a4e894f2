// Runtime kernel dispatch: detect what the CPU supports, intersect with what
// this binary compiled, apply the DSIG_FORCE_SCALAR pin, and publish one
// atomic table pointer that the query layer loads on every kernel call.
#include "util/simd/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace dsig {
namespace simd {

namespace {

const KernelTable* TableFor(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return ScalarKernels();
    case SimdLevel::kSse42:
      return Sse42Kernels();
    case SimdLevel::kNeon:
      return NeonKernels();
  }
  return nullptr;
}

// Does the *CPU we are running on* support this level? (Independent of
// whether the variant was compiled in — TableFor answers that.)
bool CpuSupports(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kSse42:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("sse4.2");
#else
      return false;
#endif
    case SimdLevel::kNeon:
#if defined(__aarch64__)
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool Usable(SimdLevel level) {
  return TableFor(level) != nullptr && CpuSupports(level);
}

constexpr SimdLevel kLadder[] = {SimdLevel::kScalar, SimdLevel::kSse42,
                                 SimdLevel::kNeon};

SimdLevel BestUsableLevel() {
  SimdLevel best = SimdLevel::kScalar;
  for (SimdLevel level : kLadder) {
    if (Usable(level)) best = level;
  }
  return best;
}

bool EnvTruthy(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

std::atomic<const KernelTable*> g_active_table{nullptr};
std::atomic<int> g_active_level{static_cast<int>(SimdLevel::kScalar)};
std::once_flag g_init_once;

void StoreActive(SimdLevel level) {
  // Level first, table second: Kernels() keys readiness off the table
  // pointer, and ActiveLevel() forces init the same way.
  g_active_level.store(static_cast<int>(level), std::memory_order_relaxed);
  g_active_table.store(TableFor(level), std::memory_order_release);
}

void InitDispatch() {
  StoreActive(EnvTruthy("DSIG_FORCE_SCALAR") ? SimdLevel::kScalar
                                              : BestUsableLevel());
}

void EnsureInit() { std::call_once(g_init_once, InitDispatch); }

// Pins the active level; false (level unchanged) when the variant was not
// compiled or the CPU lacks it.
bool SetActiveLevel(SimdLevel level) {
  EnsureInit();
  if (!Usable(level)) return false;
  StoreActive(level);
  return true;
}

}  // namespace

const KernelTable& Kernels() {
  const KernelTable* t = g_active_table.load(std::memory_order_acquire);
  if (t == nullptr) {
    EnsureInit();
    t = g_active_table.load(std::memory_order_acquire);
  }
  return *t;
}

SimdLevel ActiveLevel() {
  EnsureInit();
  return static_cast<SimdLevel>(g_active_level.load(std::memory_order_relaxed));
}

std::vector<SimdLevel> AvailableLevels() {
  EnsureInit();
  std::vector<SimdLevel> levels;
  for (SimdLevel level : kLadder) {
    if (Usable(level)) levels.push_back(level);
  }
  return levels;
}

SimdOverride::SimdOverride(SimdLevel level)
    : previous_(ActiveLevel()), applied_(SetActiveLevel(level)) {}

SimdOverride::~SimdOverride() {
  if (applied_) SetActiveLevel(previous_);
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse42:
      return "sse4.2";
    case SimdLevel::kNeon:
      return "neon";
  }
  return "unknown";
}

std::string CpuFeatureString() {
  EnsureInit();
  std::string s = "cpu:";
  bool any = false;
  for (SimdLevel level : kLadder) {
    if (level != SimdLevel::kScalar && CpuSupports(level)) {
      s += ' ';
      s += SimdLevelName(level);
      any = true;
    }
  }
  if (!any) s += " (baseline)";
  s += "; compiled:";
  for (SimdLevel level : kLadder) {
    if (TableFor(level) != nullptr) {
      s += ' ';
      s += SimdLevelName(level);
    }
  }
  s += "; active: ";
  s += SimdLevelName(ActiveLevel());
  return s;
}

}  // namespace simd
}  // namespace dsig
