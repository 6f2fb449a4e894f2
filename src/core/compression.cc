#include "core/compression.h"

#include <algorithm>
#include <tuple>

#include "core/row_stage.h"
#include "util/logging.h"
#include "util/simd/simd.h"

namespace dsig {

namespace {

// Layout adapters: the encoder's AoS row and the decoder's stage share one
// implementation of the rep rule (ComputeRepsView) so the two cannot drift.
struct AosRowView {
  const SignatureRow* row;
  size_t size() const { return row->size(); }
  bool compressed(uint32_t i) const { return (*row)[i].compressed; }
  uint8_t category(uint32_t i) const { return (*row)[i].category; }
  uint8_t link(uint32_t i) const { return (*row)[i].link; }
};

struct StageRowView {
  const RowStage* stage;
  size_t size() const { return stage->size(); }
  bool compressed(uint32_t i) const { return stage->flags()[i] != 0; }
  uint8_t category(uint32_t i) const { return stage->categories()[i]; }
  uint8_t link(uint32_t i) const { return stage->links()[i]; }
};

}  // namespace

int AddUpCategories(int a, int b, int num_categories) {
  DSIG_CHECK_GE(a, 0);
  DSIG_CHECK_GE(b, 0);
  DSIG_CHECK_LT(a, num_categories);
  DSIG_CHECK_LT(b, num_categories);
  if (a != b) return std::max(a, b);
  return std::min(a + 1, num_categories - 1);
}

RowCompressor::RowCompressor(const CategoryPartition* partition,
                             const ObjectDistanceTable* table)
    : partition_(partition), table_(table) {
  DSIG_CHECK(partition_ != nullptr);
  DSIG_CHECK(table_ != nullptr);
}

int RowCompressor::ObjectPairCategory(uint32_t u, uint32_t v) const {
  if (table_->IsFar(u, v)) return partition_->num_categories() - 1;
  return partition_->CategoryOf(table_->Get(u, v));
}

template <class View>
std::vector<RowCompressor::Rep> RowCompressor::ComputeRepsView(
    const View& view) const {
  std::vector<Rep> reps;
  const uint32_t n = static_cast<uint32_t>(view.size());
  for (uint32_t i = 0; i < n; ++i) {
    if (view.compressed(i)) continue;
    const uint8_t category = view.category(i);
    const uint8_t link = view.link(i);
    bool found = false;
    for (Rep& rep : reps) {
      if (rep.link != link) continue;
      found = true;
      // Position is the tie-break: the earlier object wins, and since we
      // scan in position order the incumbent already wins ties.
      if (category < rep.category) {
        rep = {i, category, link};
      }
      break;
    }
    if (!found) reps.push_back({i, category, link});
  }
  return reps;
}

bool RowCompressor::BestRep(const std::vector<Rep>& reps, uint32_t v,
                            uint8_t* category, uint8_t* link) const {
  const int m = partition_->num_categories();
  bool have = false;
  int best_sum = 0;
  uint8_t best_cat = 0;
  uint32_t best_pos = 0;
  uint8_t best_link = 0;
  for (const Rep& rep : reps) {
    if (rep.object == v) continue;
    const int sum =
        AddUpCategories(rep.category, ObjectPairCategory(rep.object, v), m);
    const bool better =
        !have ||
        std::make_tuple(sum, static_cast<int>(rep.category), rep.object) <
            std::make_tuple(best_sum, static_cast<int>(best_cat), best_pos);
    if (better) {
      have = true;
      best_sum = sum;
      best_cat = rep.category;
      best_pos = rep.object;
      best_link = rep.link;
    }
  }
  if (!have) return false;
  *category = static_cast<uint8_t>(best_sum);
  *link = best_link;
  return true;
}

size_t RowCompressor::Compress(SignatureRow* row) const {
  // Reps are fixed from the fully uncompressed row; flagged entries never
  // include a rep, so the decoder recovers the identical rep set.
  for (SignatureEntry& entry : *row) {
    DSIG_CHECK(!entry.compressed) << "row already compressed";
  }
  const std::vector<Rep> reps = ComputeRepsView(AosRowView{row});
  size_t flagged = 0;
  for (uint32_t v = 0; v < row->size(); ++v) {
    SignatureEntry& entry = (*row)[v];
    uint8_t category = 0, link = 0;
    if (!BestRep(reps, v, &category, &link)) continue;
    if (category == entry.category && link == entry.link) {
      entry.compressed = true;
      ++flagged;
    }
  }
  return flagged;
}

bool RowCompressor::TryResolveStage(RowStage* stage) const {
  if (stage->size() != table_->num_objects()) return false;
  const int m = partition_->num_categories();
  const size_t n = stage->size();
  const uint8_t* cats = stage->categories();
  const uint8_t* flags = stage->flags();
  const simd::KernelTable& k = simd::Kernels();
  // Out-of-partition categories among uncompressed entries, counted without
  // a filtered scan: flagged entries hold the 0xFF sentinel (the stage
  // invariant), so bad cats split into [m, 255) — uncompressed by
  // construction — plus the 0xFF lanes that are not flags.
  if (m <= 0xFF) {
    const size_t bad_below_ff = k.count_in_range(cats, n, m, 0xFF);
    const size_t cat_ff = k.count_in_range(cats, n, 0xFF, 256);
    const size_t num_flagged = k.count_in_range(flags, n, 1, 256);
    if (bad_below_ff != 0 || cat_ff != num_flagged) return false;
  }
  if (!stage->any_compressed()) return true;
  const std::vector<Rep> reps = ComputeRepsView(StageRowView{stage});
  uint32_t* const idx = stage->index_scratch();
  const size_t num_compressed = k.extract_in_range(flags, n, 1, 256, idx);
  uint8_t* const mcats = stage->categories();
  uint8_t* const mlinks = stage->links();
  uint8_t* const mflags = stage->flags();
  for (size_t j = 0; j < num_compressed; ++j) {
    const uint32_t v = idx[j];
    if (!BestRep(reps, v, &mcats[v], &mlinks[v])) return false;
    mflags[v] = 0;
  }
  stage->set_any_compressed(false);
  return true;
}

}  // namespace dsig
