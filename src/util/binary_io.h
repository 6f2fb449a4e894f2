// The durable-file layer: every file dsig persists (network and index
// checkpoints, the write-ahead log, dsig_tool's saves) is encoded by one
// little-endian codec, written by one BinaryWriter, read back by one
// BinaryReader and put in place by one AtomicReplace. Not a general-purpose
// format: each persisted structure writes a magic + version header and a
// fixed field order.
//
// Robustness contract: neither side ever aborts on bad input or failed I/O.
// Errors are sticky — the first failure latches into status(), every later
// call becomes a no-op (reads return zeros / empty vectors), and the caller
// checks status() at section boundaries. Length prefixes are validated
// against the bytes actually remaining in the file before any allocation, so
// a corrupt 8-byte length can never trigger a multi-GB allocation.
//
// Integrity: both sides maintain a running CRC-32C. BeginSection() resets it;
// the writer's EndSection() appends the checksum of everything written since,
// and the reader's VerifySection() recomputes and compares. Deterministic
// fault plans (util/fault_plan.h) attach to either side beneath the checksum
// layer, keyed on absolute file offsets.
//
// Durability: BinaryWriter::Sync() (fflush + fsync) is the one fsync.
// AtomicReplace writes `<path>.tmp`, fsyncs it, renames it over `path` and
// fsyncs the directory, so a power loss at any point leaves the old file or
// the whole new one, and the new one once AtomicReplace has returned.
#ifndef DSIG_UTIL_BINARY_IO_H_
#define DSIG_UTIL_BINARY_IO_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "util/fault_plan.h"
#include "util/status.h"

namespace dsig {

// The little-endian codec: every multi-byte integer any persisted format
// stores goes through these two (doubles as their IEEE-754 bits).
template <typename T>
inline void StoreLE(uint8_t* out, T value) {
  static_assert(std::is_unsigned_v<T>);
  for (size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

template <typename T>
inline T LoadLE(const uint8_t* in) {
  static_assert(std::is_unsigned_v<T>);
  T value = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    value |= static_cast<T>(in[i]) << (8 * i);
  }
  return value;
}

// Buffered binary writer over a file. Errors are sticky; call Close() (or
// check status()) to learn whether everything — including the final flush —
// actually reached the file.
class BinaryWriter {
 public:
  // Creates (or truncates) `path`.
  explicit BinaryWriter(const std::string& path);
  // Opens the existing `path` at byte `offset`, discarding every byte at or
  // after it (a log resuming after its committed prefix).
  BinaryWriter(const std::string& path, uint64_t offset);
  ~BinaryWriter();
  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  bool is_open() const { return file_ != nullptr; }

  void WriteU32(uint32_t value);
  void WriteU64(uint64_t value);
  void WriteDouble(double value);
  // Length-prefixed byte array.
  void WriteBytes(const std::vector<uint8_t>& bytes);
  // Fixed-size bytes, no prefix (a frame built with StoreLE).
  void WriteRaw(const void* data, size_t bytes);

  template <typename T>
  void WriteVectorU32(const std::vector<T>& values) {
    WriteU64(values.size());
    for (const T& v : values) WriteU32(static_cast<uint32_t>(v));
  }

  void WriteVectorDouble(const std::vector<double>& values) {
    WriteU64(values.size());
    for (const double v : values) WriteDouble(v);
  }

  // Section checksums: BeginSection() resets the running CRC-32C,
  // EndSection() appends it as a U32.
  void BeginSection() { section_crc_ = 0; }
  void EndSection();

  // Absolute file offset of the next byte.
  uint64_t position() const { return position_; }

  // Flushes stdio buffers and fsyncs the file: the durability point.
  Status Sync();

  // Flushes and closes, surfacing fflush/fclose failures (a buffered write
  // to a full disk often only fails here). Idempotent; returns the sticky
  // status. The destructor closes best-effort without reporting.
  Status Close();

  // Models a crash or a full disk at plan.fail_at (tests): the bytes before
  // it reach the file and are flushed, nothing at or after it does, and the
  // write that reaches it latches an I/O error.
  void InjectFaults(const WriteFaultPlan& plan) { fault_plan_ = plan; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  Status status_;
  uint32_t section_crc_ = 0;
  uint64_t position_ = 0;
  WriteFaultPlan fault_plan_;
};

// Binary reader mirroring BinaryWriter. Corrupt or truncated input latches a
// kCorruption status; reads past the first error return zeros.
class BinaryReader {
 public:
  explicit BinaryReader(const std::string& path);
  ~BinaryReader();
  BinaryReader(const BinaryReader&) = delete;
  BinaryReader& operator=(const BinaryReader&) = delete;

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  uint32_t ReadU32();
  uint64_t ReadU64();
  double ReadDouble();
  std::vector<uint8_t> ReadBytes();
  // Fixed-size bytes, no prefix (decode with LoadLE).
  void ReadRaw(void* data, size_t bytes);

  std::vector<uint32_t> ReadVectorU32();
  std::vector<double> ReadVectorDouble();

  // Bytes between the read position and the (possibly fault-truncated) end.
  uint64_t remaining() const {
    return position_ >= effective_size_ ? 0 : effective_size_ - position_;
  }
  uint64_t position() const { return position_; }
  bool AtEnd() const { return remaining() == 0; }

  // Mirrors the writer's section checksums. VerifySection() consumes the
  // stored U32 and compares it with the CRC-32C of the bytes read since
  // BeginSection(); mismatch latches and returns kCorruption.
  void BeginSection() { section_crc_ = 0; }
  Status VerifySection(const char* section_name);

  // Applies deterministic faults beneath the checksum layer (tests): a
  // truncation shortens what the reader sees, a flip mutates a byte as it is
  // read, fail_at fails the read that reaches it.
  void InjectFaults(const ReadFaultPlan& plan);

 private:
  // A length prefix, failing when `count` items of `width` bytes cannot fit
  // in the bytes that remain.
  uint64_t ReadCount(uint64_t width, const char* what);
  void Fail(Status status);

  std::FILE* file_ = nullptr;
  Status status_;
  uint32_t section_crc_ = 0;
  uint64_t position_ = 0;
  uint64_t effective_size_ = 0;  // min(file size, fault truncation)
  ReadFaultPlan fault_plan_;
};

// Replaces `path` with what `body` writes, atomically and durably:
//   1. `body` writes `<path>.tmp` through a BinaryWriter under `faults`;
//   2. the temp is flushed, fsync'd and closed;
//   3. it is renamed over `path`;
//   4. the directory is fsync'd (`.` for a bare file name).
// A failure before the rename removes the temp and leaves `path` as it was;
// a failed directory fsync is reported with the new file already in place.
Status AtomicReplace(const std::string& path, const WriteFaultPlan& faults,
                     const std::function<void(BinaryWriter&)>& body);

// Deletes a superseded durable file. The remove is not made durable: one a
// power loss undoes leaves a file the next cleanup deletes again.
Status RemoveFile(const std::string& path);

// Test seam for power-loss models (tests/power_loss_test.cc): while a
// DurableStepRecorder is alive, each durable step this layer completes is
// passed to its sink, in order. Install it around single-writer code only.
struct DurableStep {
  enum Kind { kFileSync, kRename, kDirSync, kRemove };
  Kind kind;
  std::string path;    // the file, the rename's source, or the directory
  std::string target;  // the rename's destination; empty otherwise
};

class DurableStepRecorder {
 public:
  using Sink = std::function<void(const DurableStep&)>;
  explicit DurableStepRecorder(Sink sink);
  ~DurableStepRecorder();
  DurableStepRecorder(const DurableStepRecorder&) = delete;
  DurableStepRecorder& operator=(const DurableStepRecorder&) = delete;

 private:
  Sink sink_;
};

}  // namespace dsig

#endif  // DSIG_UTIL_BINARY_IO_H_
