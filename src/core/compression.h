// Signature compression (paper §5.3).
//
// Observation: many objects share a node's backtracking link, and a remote
// object v's category is often derivable from a closer object u with the
// same link as s(n)[u] ⊕ s(u)[v], where ⊕ is the categorical add-up of
// Definition 5.1 (max of unequal categories; increment when equal). Such
// entries are replaced by a single flag bit; category AND link are
// reconstructed at read time from u and the in-memory object-distance table.
//
// The paper leaves the reader to infer how the decompressor re-identifies u
// once v's entry is gone; we fix a deterministic rule both sides share (see
// DESIGN.md):
//   * reps: for each link value, the uncompressed entry minimizing
//     (category, object position). Reps are provably never compressed, so
//     the decoder recovers the same rep set from the surviving entries.
//   * u(v): over all reps u, minimize (s(n)[u] ⊕ s(u)[v], s(n)[u] category,
//     position). The encoder flags v only when u(v)'s add-up reproduces v's
//     category exactly AND u(v) shares v's link — making decompression
//     lossless by construction.
// The encoder flags entries of the write-side SignatureRow (Compress); the
// decoder resolves them in a decoded RowStage (TryResolveStage).
#ifndef DSIG_CORE_COMPRESSION_H_
#define DSIG_CORE_COMPRESSION_H_

#include <cstdint>

#include "core/category_partition.h"
#include "core/object_distance_table.h"
#include "core/signature.h"

namespace dsig {

// Definition 5.1: the categorical sum of two categories. When they differ
// the larger dominates; when equal the sum likely spills into the next
// category (clamped to the last).
int AddUpCategories(int a, int b, int num_categories);

class RowCompressor {
 public:
  // Both referents must outlive the compressor.
  RowCompressor(const CategoryPartition* partition,
                const ObjectDistanceTable* table);

  // Category of the object-object distance d(u, v) (object indexes); far
  // pairs fall in the last category by definition.
  int ObjectPairCategory(uint32_t u, uint32_t v) const;

  // Flags every compressible entry of `row` (Algorithm 7); returns the
  // number of flagged entries. Category-0 entries (including the entry of an
  // object living on this very node) can never be flagged because the add-up
  // of Definition 5.1 is always positive.
  size_t Compress(SignatureRow* row) const;

  // Resolves every compressed entry of a decoded row in place (core/
  // row_stage.h), with category validation and flag extraction running on
  // the SIMD kernels; resolved entries are written back into the stage's
  // lanes and the flags cleared. Never aborts, so untrusted rows are safe:
  // false (stage left partially resolved) when the row's size does not
  // match the object table, an uncompressed category is outside the
  // partition, or a compressed entry has no representative — all states
  // only a corrupt index can reach. Relies on the stage invariant that
  // flagged entries hold the kUnresolved sentinels (which decode
  // guarantees).
  bool TryResolveStage(RowStage* stage) const;

 private:
  struct Rep {
    uint32_t object = 0;  // object index of the representative
    uint8_t category = 0;
    uint8_t link = 0;
  };

  // One rep per distinct link value present among uncompressed entries.
  // View adapters (defined in compression.cc) give the encoder's AoS row and
  // the decoder's stage one implementation of the rep rule, so compression
  // and resolution cannot drift apart.
  template <class View>
  std::vector<Rep> ComputeRepsView(const View& view) const;

  // Best u(v) under the deterministic rule; returns false when no rep
  // precedes v. On success fills `category` (the add-up) and `link`.
  bool BestRep(const std::vector<Rep>& reps, uint32_t v, uint8_t* category,
               uint8_t* link) const;

  const CategoryPartition* partition_;
  const ObjectDistanceTable* table_;
};

}  // namespace dsig

#endif  // DSIG_CORE_COMPRESSION_H_
