// The decoded form of one signature row.
//
// A RowStage holds a row as three parallel 64-byte-aligned lanes —
// categories, links, compression flags — emitted directly by the codec's
// fused decode (SignatureCodec::TryDecodeRowStage) and resolved in place
// (RowCompressor::TryResolveStage), so the hot query loops hand the lanes to
// the SIMD kernels (util/simd) and scan them 16/32-wide without a gather or
// a transpose. It is the only decoded row form on the read side; the AoS
// SignatureRow survives only as the write-side form the builder, the
// compressor and the encoder work on.
//
// Query loops keep one thread_local stage as scratch and refill it per row,
// so the buffers stop reallocating once they reach the object count. The
// row cache (core/row_cache.h) keeps copies: a copy owns fresh lanes and
// carries the three lanes and any_compressed() only, not the index scratch.
#ifndef DSIG_CORE_ROW_STAGE_H_
#define DSIG_CORE_ROW_STAGE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/signature.h"

namespace dsig {

class RowStage {
 public:
  RowStage() = default;
  // Deep copies: the lanes are re-pointed into this stage's own buffer.
  RowStage(const RowStage& other);
  RowStage& operator=(const RowStage& other);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Unresolved (compressed) entries hold kUnresolvedCategory /
  // kUnresolvedLink with flag 1; resolution (RowCompressor::TryResolveStage)
  // rewrites them in place and clears the flags.
  const uint8_t* categories() const { return categories_; }
  const uint8_t* links() const { return links_; }
  const uint8_t* flags() const { return flags_; }
  uint8_t* categories() { return categories_; }
  uint8_t* links() { return links_; }
  uint8_t* flags() { return flags_; }

  // True while any flag is set; decode and resolve maintain it so readers
  // can skip the resolve pass entirely for fully materialized rows.
  bool any_compressed() const { return any_compressed_; }
  void set_any_compressed(bool v) { any_compressed_ = v; }

  SignatureEntry entry(uint32_t i) const {
    return {categories_[i], links_[i], flags_[i] != 0};
  }

  // Sizes the arrays for `n` entries; contents are undefined afterwards.
  void Resize(size_t n);

  // Heap bytes held by the lanes (the row cache's charge for a copy).
  size_t lane_bytes() const { return buffer_.size(); }

  // Index buffer sized to the row, for kernel extraction output
  // (simd::KernelTable::extract_in_range writes at most size() indices).
  uint32_t* index_scratch();

 private:
  // One allocation, three lanes at 64-byte-aligned offsets.
  std::vector<uint8_t> buffer_;
  std::vector<uint32_t> scratch_;
  uint8_t* categories_ = nullptr;
  uint8_t* links_ = nullptr;
  uint8_t* flags_ = nullptr;
  size_t size_ = 0;
  bool any_compressed_ = false;
};

}  // namespace dsig

#endif  // DSIG_CORE_ROW_STAGE_H_
