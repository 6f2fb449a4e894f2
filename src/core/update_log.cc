#include "core/update_log.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>

#include "obs/metrics.h"
#include "util/crc32c.h"

namespace dsig {
namespace {

// Little-endian field packing, byte-for-byte compatible with io/binary_io.
void PutU32(uint8_t* out, uint32_t value) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<uint8_t>(value >> (8 * i));
}

void PutU64(uint8_t* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<uint8_t>(value >> (8 * i));
}

uint32_t GetU32(const uint8_t* in) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) value |= static_cast<uint32_t>(in[i]) << (8 * i);
  return value;
}

uint64_t GetU64(const uint8_t* in) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) value |= static_cast<uint64_t>(in[i]) << (8 * i);
  return value;
}

void EncodePayload(const UpdateRecord& record,
                   uint8_t out[UpdateLog::kPayloadBytes]) {
  out[0] = record.op;
  PutU32(out + 1, record.a);
  PutU32(out + 5, record.b);
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(record.weight));
  __builtin_memcpy(&bits, &record.weight, sizeof(bits));
  PutU64(out + 9, bits);
}

UpdateRecord DecodePayload(const uint8_t* in) {
  UpdateRecord record;
  record.op = in[0];
  record.a = GetU32(in + 1);
  record.b = GetU32(in + 5);
  const uint64_t bits = GetU64(in + 9);
  __builtin_memcpy(&record.weight, &bits, sizeof(record.weight));
  return record;
}

Status FsyncFile(std::FILE* file, const std::string& path) {
  if (std::fflush(file) != 0) {
    return Status::IoError("fflush failed for " + path + " (disk full?)");
  }
  obs::ScopedTimer timer(
      obs::MetricsRegistry::Global().GetHistogram("wal.fsync_ms"));
  if (fsync(fileno(file)) != 0) {
    return Status::IoError("fsync failed for " + path);
  }
  return Status::Ok();
}

}  // namespace

Status UpdateRecord::Validate() const {
  switch (op) {
    case kAddEdge:
      if (a == b) return Status::Corruption("logged AddEdge is a self-loop");
      if (!(weight > 0) || !std::isfinite(weight)) {
        return Status::Corruption("logged AddEdge weight is not positive");
      }
      return Status::Ok();
    case kRemoveEdge:
      return Status::Ok();
    case kSetEdgeWeight:
      if (!(weight > 0) || !std::isfinite(weight)) {
        return Status::Corruption("logged weight is not positive");
      }
      return Status::Ok();
    default:
      return Status::Corruption("unknown update op " + std::to_string(op));
  }
}

Status UpdateRecord::CheckApplicable(const RoadNetwork& graph) const {
  DSIG_RETURN_IF_ERROR(Validate());
  if (op == kAddEdge) {
    if (a >= graph.num_nodes() || b >= graph.num_nodes()) {
      return Status::Corruption("logged AddEdge endpoint out of range");
    }
    return Status::Ok();
  }
  // kRemoveEdge or kSetEdgeWeight: Validate rejected every other op.
  if (a >= graph.num_edge_slots()) {
    return Status::Corruption("logged edge id out of range");
  }
  if (graph.edge_removed(a)) {
    return Status::Corruption("logged op names a removed edge");
  }
  return Status::Ok();
}

Status UpdateRecord::ApplyTo(RoadNetwork* graph) const {
  DSIG_RETURN_IF_ERROR(CheckApplicable(*graph));
  switch (op) {
    case kAddEdge:
      graph->AddEdge(a, b, weight);
      break;
    case kRemoveEdge:
      graph->RemoveEdge(a);
      break;
    case kSetEdgeWeight:
      graph->SetEdgeWeight(a, weight);
      break;
  }
  return Status::Ok();
}

Status UpdateLog::Create(const std::string& path, uint64_t base_seq,
                         const WriteFaultPlan& faults) {
  // Temp + rename, like io/persistence's AtomicSave: a crash at any byte of
  // the new header leaves the previous log (if any) untouched.
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) return Status::IoError("cannot create " + tmp);

  uint8_t header[kHeaderBytes];
  PutU32(header, kMagic);
  PutU32(header + 4, kVersion);
  PutU64(header + 8, base_seq);
  PutU32(header + 16, Crc32c(header, 16));

  Status status;
  const uint64_t keep =
      faults.fail_at == kNoFault
          ? kHeaderBytes
          : (faults.fail_at < kHeaderBytes ? faults.fail_at : kHeaderBytes);
  if (keep > 0 && std::fwrite(header, 1, keep, file) != keep) {
    status = Status::IoError("short write creating " + tmp);
  }
  if (status.ok() && keep < kHeaderBytes) {
    status = Status::IoError("injected write failure at byte " +
                             std::to_string(faults.fail_at));
  }
  if (status.ok()) status = FsyncFile(file, tmp);
  if (std::fclose(file) != 0 && status.ok()) {
    status = Status::IoError("fclose failed for " + tmp);
  }
  if (!status.ok()) {
    std::remove(tmp.c_str());
    return status;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename " + tmp + " to " + path);
  }
  return Status::Ok();
}

StatusOr<WalReplay> UpdateLog::Replay(const std::string& path,
                                      const ReadFaultPlan& faults) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return Status::NotFound("cannot open " + path);
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  if (size < 0 || std::fseek(file, 0, SEEK_SET) != 0) {
    std::fclose(file);
    return Status::IoError("cannot size " + path);
  }
  std::vector<uint8_t> data(static_cast<size_t>(size));
  if (!data.empty() && std::fread(data.data(), 1, data.size(), file) !=
                           data.size()) {
    std::fclose(file);
    return Status::IoError("read failed for " + path);
  }
  std::fclose(file);

  // Deterministic faults, applied as a corrupted medium would present them:
  // truncation shortens what the scan can see, flips mutate a byte beneath
  // the checksum layer, fail_at fires only if the scan actually reaches it.
  uint64_t effective = data.size();
  if (faults.truncate_at != kNoFault && faults.truncate_at < effective) {
    effective = faults.truncate_at;
  }
  if (faults.flip_byte != kNoFault && faults.flip_byte < effective) {
    data[faults.flip_byte] ^= faults.flip_mask;
  }
  const auto read_hits_fault = [&faults](uint64_t begin, uint64_t end) {
    return faults.fail_at != kNoFault && faults.fail_at >= begin &&
           faults.fail_at < end;
  };

  if (effective < kHeaderBytes) {
    return Status::Corruption("update log header truncated (" +
                              std::to_string(effective) + " bytes)");
  }
  if (read_hits_fault(0, kHeaderBytes)) {
    return Status::IoError("injected read failure at byte " +
                           std::to_string(faults.fail_at));
  }
  if (GetU32(data.data()) != kMagic) {
    return Status::Corruption("bad update log magic in " + path);
  }
  if (GetU32(data.data() + 4) != kVersion) {
    return Status::Corruption("unsupported update log version " +
                              std::to_string(GetU32(data.data() + 4)));
  }
  // The header checksum covers base_seq: a silently-wrong base would make
  // recovery splice the log onto the wrong checkpoint.
  if (Crc32c(data.data(), 16) != GetU32(data.data() + 16)) {
    return Status::Corruption("update log header failed its checksum");
  }

  WalReplay replay;
  replay.base_seq = GetU64(data.data() + 8);
  uint64_t pos = kHeaderBytes;
  while (pos < effective) {
    const uint64_t remaining = effective - pos;
    if (remaining < 8) break;  // torn tail: partial frame header
    if (read_hits_fault(pos, pos + 8)) {
      return Status::IoError("injected read failure at byte " +
                             std::to_string(faults.fail_at));
    }
    const uint32_t payload_len = GetU32(data.data() + pos);
    const uint32_t stored_crc = GetU32(data.data() + pos + 4);
    // A torn append leaves a strict prefix of a valid frame, so a complete
    // length field always holds the real length; anything else is bit rot.
    if (payload_len != kPayloadBytes) {
      return Status::Corruption("update log record at byte " +
                                std::to_string(pos) + " has length " +
                                std::to_string(payload_len));
    }
    if (remaining < 8 + static_cast<uint64_t>(payload_len)) {
      break;  // torn tail: partial payload
    }
    if (read_hits_fault(pos + 8, pos + 8 + payload_len)) {
      return Status::IoError("injected read failure at byte " +
                             std::to_string(faults.fail_at));
    }
    const uint8_t* payload = data.data() + pos + 8;
    if (Crc32c(payload, payload_len) != stored_crc) {
      // Bad checksum on the *last* frame is the torn-write signature (a
      // crashed writer's final sectors may persist partially); bad checksum
      // with committed bytes after it can only be corruption.
      if (pos + 8 + payload_len == effective) break;
      return Status::Corruption("update log record at byte " +
                                std::to_string(pos) +
                                " failed its checksum mid-log");
    }
    const UpdateRecord record = DecodePayload(payload);
    // The checksum proves these bytes are what the writer wrote, so a
    // semantically invalid record is a writer bug or checksummed garbage —
    // never a torn tail.
    DSIG_RETURN_IF_ERROR(record.Validate());
    replay.records.push_back(record);
    pos += kFrameBytes;
    replay.committed_bytes = pos;
  }
  replay.committed_bytes =
      replay.records.empty() ? kHeaderBytes : replay.committed_bytes;
  replay.torn_bytes = effective - replay.committed_bytes;
  return replay;
}

StatusOr<std::unique_ptr<UpdateLog>> UpdateLog::Open(
    const std::string& path, const WriteFaultPlan& faults) {
  StatusOr<WalReplay> replay = Replay(path);
  if (!replay.ok()) return replay.status();

  std::FILE* file = std::fopen(path.c_str(), "rb+");
  if (file == nullptr) return Status::IoError("cannot open " + path);
  // Drop any crash-torn tail so new appends extend the committed prefix.
  if (replay->torn_bytes > 0 &&
      ftruncate(fileno(file), static_cast<off_t>(replay->committed_bytes)) !=
          0) {
    std::fclose(file);
    return Status::IoError("cannot truncate torn tail of " + path);
  }
  if (std::fseek(file, static_cast<long>(replay->committed_bytes),
                 SEEK_SET) != 0) {
    std::fclose(file);
    return Status::IoError("cannot seek " + path);
  }

  std::unique_ptr<UpdateLog> log(new UpdateLog());
  log->file_ = file;
  log->base_seq_ = replay->base_seq;
  log->record_count_ = replay->records.size();
  log->bytes_ = replay->committed_bytes;
  log->fault_plan_ = faults;
  return log;
}

UpdateLog::~UpdateLog() {
  if (file_ != nullptr) std::fclose(file_);
}

void UpdateLog::WriteRaw(const void* data, size_t size) {
  if (!status_.ok()) return;
  // Crash semantics, not disk-full semantics: bytes strictly before fail_at
  // reach the file, nothing at or after it does. This is what lets the chaos
  // harness place the torn boundary at every byte of a frame.
  size_t keep = size;
  bool crash = false;
  if (fault_plan_.fail_at != kNoFault && bytes_ + size > fault_plan_.fail_at) {
    keep = fault_plan_.fail_at > bytes_
               ? static_cast<size_t>(fault_plan_.fail_at - bytes_)
               : 0;
    crash = true;
  }
  if (keep > 0 && std::fwrite(data, 1, keep, file_) != keep) {
    status_ = Status::IoError("short write at byte " + std::to_string(bytes_) +
                              " (disk full?)");
    return;
  }
  bytes_ += keep;
  if (crash) {
    std::fflush(file_);  // make the torn prefix visible, as a real crash would
    status_ = Status::IoError("injected write failure at byte " +
                              std::to_string(fault_plan_.fail_at));
  }
}

Status UpdateLog::Append(const UpdateRecord& record) {
  if (!status_.ok()) return status_;
  Status valid = record.Validate();
  if (!valid.ok()) return valid;  // caller bug; do not latch the log

  uint8_t frame[kFrameBytes];
  PutU32(frame, static_cast<uint32_t>(kPayloadBytes));
  EncodePayload(record, frame + 8);
  PutU32(frame + 4, Crc32c(frame + 8, kPayloadBytes));
  WriteRaw(frame, kFrameBytes);
  if (!status_.ok()) return status_;

  ++record_count_;
  static obs::Counter* records =
      obs::MetricsRegistry::Global().GetCounter("wal.records");
  static obs::Counter* bytes =
      obs::MetricsRegistry::Global().GetCounter("wal.bytes");
  records->Add(1);
  bytes->Add(kFrameBytes);
  return status_;
}

Status UpdateLog::Sync() {
  if (!status_.ok()) return status_;
  if (file_ == nullptr) return status_;
  status_ = FsyncFile(file_, "update log");
  if (status_.ok()) {
    static obs::Counter* syncs =
        obs::MetricsRegistry::Global().GetCounter("wal.syncs");
    syncs->Add(1);
  }
  return status_;
}

Status UpdateLog::Close() {
  if (file_ == nullptr) return status_;
  Sync();
  if (std::fclose(file_) != 0 && status_.ok()) {
    status_ = Status::IoError("fclose failed for update log");
  }
  file_ = nullptr;
  return status_;
}

}  // namespace dsig
