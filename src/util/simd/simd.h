// SIMD query kernels with runtime CPU-feature dispatch.
//
// The query hot path on top of row decode is a handful of tiny scan loops:
// compare one small category byte per object (range filtering, kNN
// bucketing, observer selection), accumulate distances (aggregates), and
// partition object-table rows into near/far (reverse kNN). Each is a
// textbook 16-wide compare+movemask or widened accumulate, so this layer
// ships them as *kernels*: a table of per-kernel function pointers with a
// generic scalar baseline that is always built, plus one vector level per
// ISA — SSE4.2 on x86-64, NEON on aarch64 — compiled in its own
// translation unit with per-TU ISA flags. One binary serves any fleet
// machine: the vector level is used when the running CPU supports it, and
// tests or harnesses can pin any compiled level at runtime. A second vector
// level on one ISA joins only with an end-to-end win beyond the ±10% noise
// floor (ARCHITECTURE.md).
//
// Bit-identical contract: every kernel's result — including the order of
// extracted indices and the floating-point summation tree — is defined by
// the scalar reference in kernels_scalar.cc, and every ISA variant must
// reproduce it exactly. The differential fuzz suite (simd_kernels_test)
// enforces this at every compiled level, so callers may treat the dispatch
// level as unobservable.
//
// Overrides (checked once, at first use):
//   DSIG_FORCE_SCALAR=1   pin the generic scalar kernels
// plus the SimdOverride RAII hook for tests and harnesses.
#ifndef DSIG_UTIL_SIMD_SIMD_H_
#define DSIG_UTIL_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dsig {
namespace simd {

// Dispatch levels: scalar everywhere, plus SSE4.2 on x86 or NEON on
// aarch64. Value 2 is retired.
enum class SimdLevel : int {
  kScalar = 0,
  kSse42 = 1,
  kNeon = 3,
};

// One resolved set of kernels. All pointers are always non-null.
//
// Kernel semantics (the scalar reference is normative):
//
//  * extract_in_range(v, n, lo, hi, out): writes the indices i (ascending)
//    with lo <= v[i] < hi to out (caller provides room for n uint32s);
//    returns the count. lo/hi are ints so hi = 256 expresses "no upper
//    bound" even though lanes are bytes.
//  * count_in_range(v, n, lo, hi): the count alone, no index output.
//  * max_u8 / min_u8: horizontal max/min; 0 / 0xFF on an empty input.
//  * aggregate_f64(v, n, sum, min, max): *sum = the blocked sum of v —
//    eight stride-8 accumulator lanes (acc[i & 7] += v[i]) combined in the
//    fixed tree ((a0+a4)+(a2+a6)) + ((a1+a5)+(a3+a7))
//    ... precisely: t[j] = acc[j] + acc[j+4] for j in 0..3, then
//    *sum = (t0 + t2) + (t1 + t3). The tree is part of the kernel contract
//    so every dispatch level produces the same bits. *min/*max get the
//    lane-order-independent extrema (+inf / -inf on empty input).
//  * compact_finite_f64(v, n, out): copies the values != kInfiniteWeight
//    (the object-distance table's "far" marker) to out in order; returns
//    the count.
//  * label_merge(ah, ad, an, bh, bd, bn): min-plus merge of two hub labels
//    (core/hub_labels.h). ah/bh are strictly-ascending hub ranks, ad/bd the
//    matching finite non-negative distances; returns min over shared hubs h
//    of ad[h] + bd[h], or +inf when the labels share no hub. Hubs are
//    unique within a label and ranks stay below 2^31 (they index nodes), so
//    the candidate set {ad[i] + bd[j] : ah[i] == bh[j]} is visit-order
//    independent and any intersection strategy (linear merge, galloping,
//    block compare) yields the same bits.
struct KernelTable {
  const char* name;
  size_t (*extract_in_range)(const uint8_t* v, size_t n, int lo, int hi,
                             uint32_t* out);
  size_t (*count_in_range)(const uint8_t* v, size_t n, int lo, int hi);
  uint8_t (*max_u8)(const uint8_t* v, size_t n);
  uint8_t (*min_u8)(const uint8_t* v, size_t n);
  void (*aggregate_f64)(const double* v, size_t n, double* sum, double* min,
                        double* max);
  size_t (*compact_finite_f64)(const double* v, size_t n, double* out);
  double (*label_merge)(const uint32_t* ah, const double* ad, size_t an,
                        const uint32_t* bh, const double* bd, size_t bn);
};

// The active kernel table. First call detects CPU features, applies the
// DSIG_FORCE_SCALAR pin, and caches the result; afterwards this is one
// atomic load.
const KernelTable& Kernels();

// The level Kernels() currently dispatches to.
SimdLevel ActiveLevel();

// Levels compiled into this binary and supported by this CPU (always
// includes kScalar, ascending). Tests and benches iterate this to cover
// every reachable dispatch path.
std::vector<SimdLevel> AvailableLevels();

// RAII pin for tests/harnesses: pins `level` for its lifetime, restores the
// previous level on destruction. Not intended for concurrent use with
// running queries — pin before serving, or from a quiesced test.
class SimdOverride {
 public:
  explicit SimdOverride(SimdLevel level);
  ~SimdOverride();
  SimdOverride(const SimdOverride&) = delete;
  SimdOverride& operator=(const SimdOverride&) = delete;

  // False when the requested level was unavailable (the override then kept
  // the previous level active).
  bool applied() const { return applied_; }

 private:
  SimdLevel previous_;
  bool applied_;
};

const char* SimdLevelName(SimdLevel level);

// Human-readable summary of what the CPU offers vs what this binary built,
// e.g. "cpu: sse4.2; compiled: scalar sse4.2; active: sse4.2". This is how
// the level is reported: `dsig_tool stats` prints it on stderr and the
// server on startup, each as a `simd:` line.
std::string CpuFeatureString();

// Per-variant tables; null when the variant is not compiled into this
// binary. Defined one per TU so each can carry its own ISA flags.
const KernelTable* ScalarKernels();  // never null
const KernelTable* Sse42Kernels();
const KernelTable* NeonKernels();

}  // namespace simd
}  // namespace dsig

#endif  // DSIG_UTIL_SIMD_SIMD_H_
