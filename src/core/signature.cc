#include "core/signature.h"

#include <utility>

#include "core/row_stage.h"
#include "util/bitstream.h"
#include "util/logging.h"

namespace dsig {

SignatureCodec::SignatureCodec(HuffmanCode category_code, int link_bits,
                               bool has_flags)
    : category_code_(std::move(category_code)),
      link_bits_(link_bits),
      has_flags_(has_flags) {
  DSIG_CHECK_GE(link_bits_, 0);
  DSIG_CHECK_LE(link_bits_, 16);
}

EncodedRow SignatureCodec::EncodeRow(const SignatureRow& row) const {
  EncodedRow encoded;
  encoded.checkpoints.reserve(
      (row.size() + kCheckpointInterval - 1) / kCheckpointInterval);
  // Exact-size first pass (array lookups only), so the writer allocates its
  // buffer once instead of growing through the bit appends.
  size_t total_bits = 0;
  for (const SignatureEntry& entry : row) {
    total_bits += has_flags_ ? 1 : 0;
    if (!entry.compressed) {
      total_bits += static_cast<size_t>(
                        category_code_.length(entry.category)) +
                    static_cast<size_t>(link_bits_);
    }
  }
  BitWriter writer;
  writer.Reserve(total_bits);
  for (uint32_t i = 0; i < row.size(); ++i) {
    if (i % kCheckpointInterval == 0) {
      encoded.checkpoints.push_back(static_cast<uint32_t>(writer.size_bits()));
    }
    const SignatureEntry& entry = row[i];
    if (has_flags_) writer.WriteBit(entry.compressed);
    if (entry.compressed) {
      DSIG_CHECK(has_flags_) << "compressed entries need flag bits";
      continue;
    }
    category_code_.Encode(entry.category, &writer);
    DSIG_CHECK_LT(entry.link, 1u << link_bits_)
        << "backtracking link does not fit the codec's link width";
    writer.WriteBits(entry.link, link_bits_);
  }
  encoded.size_bits = static_cast<uint32_t>(writer.size_bits());
  encoded.bytes = writer.TakeBytes();
  return encoded;
}

namespace {

// Peek width that one unaligned LoadWord can always satisfy (64 minus the
// worst-case 7-bit intra-byte offset). A full component — flag (<= 1 bit) +
// table-resolved category (<= HuffmanCode::kDecodeTableBits) + link
// (<= 16 bits) — is at most 28 bits, so one peeked window covers it.
constexpr int kFusedPeekBits = 57;

// Reads one component without aborting; false on truncation / bad prefix /
// oversized link. Factored so row and entry decoding share the rules. One
// peeked window feeds the flag test, the category table lookup, and the
// link extraction, and the position advances once.
bool TryReadComponent(const HuffmanCode& category_code, int link_bits,
                      bool has_flags, BitReader* reader,
                      SignatureEntry* entry) {
  const size_t remaining = reader->size_bits() - reader->position();
  const uint64_t window = reader->PeekBits(kFusedPeekBits);
  if (has_flags) {
    if (remaining == 0) return false;
    if (window & 1) {
      entry->category = kUnresolvedCategory;
      entry->link = kUnresolvedLink;
      entry->compressed = true;
      reader->Skip(1);
      return true;
    }
  }
  const int flag = has_flags ? 1 : 0;
  int symbol = 0;
  const int cat_len = category_code.DecodeWindow(window >> flag, &symbol);
  if (cat_len != 0) {
    // PeekBits zero-pads past the end, so a matched code (or its link) may
    // extend beyond the stream: that is a truncated component, not a decode.
    const size_t consumed = static_cast<size_t>(flag + cat_len + link_bits);
    if (consumed > remaining) return false;
    if (symbol > 0xFF) return false;
    const uint64_t link = (window >> (flag + cat_len)) &
                          bitstream_internal::LowMask(link_bits);
    if (link > 0xFF) return false;  // adjacency slots are uint8
    entry->category = static_cast<uint8_t>(symbol);
    entry->link = static_cast<uint8_t>(link);
    entry->compressed = false;
    reader->Skip(static_cast<int>(consumed));
    return true;
  }
  // Long category code (or no decode table): per-primitive path.
  if (has_flags) reader->Skip(1);
  if (!category_code.TryDecode(reader, &symbol)) return false;
  if (symbol > 0xFF) return false;
  if (reader->size_bits() - reader->position() <
      static_cast<size_t>(link_bits)) {
    return false;
  }
  const uint64_t link = reader->ReadBits(link_bits);
  if (link > 0xFF) return false;  // adjacency slots are uint8
  entry->category = static_cast<uint8_t>(symbol);
  entry->link = static_cast<uint8_t>(link);
  entry->compressed = false;
  return true;
}

}  // namespace

bool SignatureCodec::TryDecodeRowStage(const EncodedRow& encoded,
                                       size_t expected_entries,
                                       RowStage* stage) const {
  stage->Resize(expected_entries);
  if (encoded.size_bits > encoded.bytes.size() * 8) return false;
  BitReader reader(encoded.bytes.data(), encoded.size_bits);
  uint8_t* const cats = stage->categories();
  uint8_t* const links = stage->links();
  uint8_t* const flags = stage->flags();
  size_t count = 0;
  bool any_compressed = false;
  while (!reader.AtEnd()) {
    SignatureEntry entry;
    if (!TryReadComponent(category_code_, link_bits_, has_flags_, &reader,
                          &entry)) {
      return false;
    }
    if (count >= expected_entries) return false;  // trailing garbage
    cats[count] = entry.category;
    links[count] = entry.link;
    flags[count] = entry.compressed ? 1 : 0;
    any_compressed |= entry.compressed;
    ++count;
  }
  stage->set_any_compressed(any_compressed);
  return count == expected_entries;
}

bool SignatureCodec::TryDecodeEntry(const EncodedRow& encoded, uint32_t index,
                                    SignatureEntry* entry,
                                    uint64_t* bit_offset) const {
  if (encoded.size_bits > encoded.bytes.size() * 8) return false;
  const uint32_t checkpoint = index / kCheckpointInterval;
  if (checkpoint >= encoded.checkpoints.size()) return false;
  const uint32_t start_bit = encoded.checkpoints[checkpoint];
  if (start_bit > encoded.size_bits) return false;
  BitReader reader(encoded.bytes.data(), encoded.size_bits);
  reader.Seek(start_bit);
  for (uint32_t i = checkpoint * kCheckpointInterval; i <= index; ++i) {
    const uint64_t start = reader.position();
    if (!TryReadComponent(category_code_, link_bits_, has_flags_, &reader,
                          entry)) {
      return false;
    }
    if (i == index) {
      if (bit_offset != nullptr) *bit_offset = start;
      return true;
    }
  }
  return false;
}

}  // namespace dsig
