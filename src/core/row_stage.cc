#include "core/row_stage.h"

#include <cstdint>
#include <cstring>

namespace dsig {

namespace {
constexpr size_t kAlign = 64;

size_t RoundUp(size_t n) { return (n + kAlign - 1) & ~(kAlign - 1); }

uint8_t* AlignPtr(uint8_t* p) {
  const uintptr_t v = reinterpret_cast<uintptr_t>(p);
  return reinterpret_cast<uint8_t*>((v + kAlign - 1) & ~uintptr_t{kAlign - 1});
}
}  // namespace

RowStage::RowStage(const RowStage& other) { *this = other; }

RowStage& RowStage::operator=(const RowStage& other) {
  if (this == &other) return *this;
  Resize(other.size_);
  if (size_ != 0) {
    std::memcpy(categories_, other.categories_, size_);
    std::memcpy(links_, other.links_, size_);
    std::memcpy(flags_, other.flags_, size_);
  }
  any_compressed_ = other.any_compressed_;
  return *this;
}

void RowStage::Resize(size_t n) {
  const size_t stride = RoundUp(n);
  if (buffer_.size() < 3 * stride + kAlign) {
    buffer_.resize(3 * stride + kAlign);
  }
  uint8_t* base = AlignPtr(buffer_.data());
  categories_ = base;
  links_ = base + stride;
  flags_ = base + 2 * stride;
  size_ = n;
  any_compressed_ = false;
}

uint32_t* RowStage::index_scratch() {
  if (scratch_.size() < size_) scratch_.resize(size_);
  return scratch_.data();
}

}  // namespace dsig
