// Deterministic I/O fault plans for util/binary_io's BinaryWriter and
// BinaryReader, the one write path and the one read path of every durable
// file (checkpoints, the write-ahead log, dsig_tool's saves): corruption
// tests describe *where* a read or write must fail, and the layer injects
// the fault beneath its checksum/validation machinery — exactly as a failing
// disk or torn write would present it. serve/net.h's socket fault plan
// mirrors these for connections.
#ifndef DSIG_UTIL_FAULT_PLAN_H_
#define DSIG_UTIL_FAULT_PLAN_H_

#include <cstdint>

namespace dsig {

// No fault at this offset.
inline constexpr uint64_t kNoFault = ~uint64_t{0};

// Deterministic corruption applied beneath a reader's checksum layer.
// Offsets are absolute file positions.
struct ReadFaultPlan {
  uint64_t truncate_at = kNoFault;  // simulated EOF at this byte offset
  uint64_t flip_byte = kNoFault;    // XOR flip_mask into the byte here
  uint8_t flip_mask = 0x01;
  uint64_t fail_at = kNoFault;      // hard I/O error when reading this byte
};

// Deterministic write failure (a full disk after N bytes, or a process
// killed mid-write): the bytes before `fail_at` reach the file and are
// flushed, nothing at or after it does, and the write that reaches it fails.
struct WriteFaultPlan {
  uint64_t fail_at = kNoFault;  // absolute byte offset
};

}  // namespace dsig

#endif  // DSIG_UTIL_FAULT_PLAN_H_
