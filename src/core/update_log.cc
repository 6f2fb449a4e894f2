#include "core/update_log.h"

#include <bit>
#include <cmath>

#include "obs/metrics.h"
#include "util/crc32c.h"

namespace dsig {
namespace {

// A frame is built and parsed with util/binary_io's codec, then written and
// read as raw bytes: its checksum precedes the payload it covers, so it is
// not one of the writer's trailing-CRC sections.
void EncodeFrame(const UpdateRecord& record,
                 uint8_t frame[UpdateLog::kFrameBytes]) {
  uint8_t* payload = frame + 8;
  payload[0] = record.op;
  StoreLE(payload + 1, record.a);
  StoreLE(payload + 5, record.b);
  StoreLE(payload + 9, std::bit_cast<uint64_t>(record.weight));
  StoreLE(frame, static_cast<uint32_t>(UpdateLog::kPayloadBytes));
  StoreLE(frame + 4, Crc32c(payload, UpdateLog::kPayloadBytes));
}

UpdateRecord DecodePayload(const uint8_t* payload) {
  UpdateRecord record;
  record.op = payload[0];
  record.a = LoadLE<uint32_t>(payload + 1);
  record.b = LoadLE<uint32_t>(payload + 5);
  record.weight = std::bit_cast<double>(LoadLE<uint64_t>(payload + 9));
  return record;
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
  return AtomicReplace(path, faults, [base_seq](BinaryWriter& writer) {
    writer.BeginSection();
    writer.WriteU32(kMagic);
    writer.WriteU32(kVersion);
    writer.WriteU64(base_seq);
    writer.EndSection();
  });
}

StatusOr<WalReplay> UpdateLog::Replay(const std::string& path,
                                      const ReadFaultPlan& faults) {
  BinaryReader reader(path);
  reader.InjectFaults(faults);
  DSIG_RETURN_IF_ERROR(reader.status());
  const uint64_t end = reader.remaining();
  if (end < kHeaderBytes) {
    return Status::Corruption("update log header truncated (" +
                              std::to_string(end) + " bytes)");
  }
  WalReplay replay;
  reader.BeginSection();
  const uint32_t magic = reader.ReadU32();
  const uint32_t version = reader.ReadU32();
  replay.base_seq = reader.ReadU64();
  DSIG_RETURN_IF_ERROR(reader.status());
  if (magic != kMagic) {
    return Status::Corruption("bad update log magic in " + path);
  }
  if (version != kVersion) {
    return Status::Corruption("unsupported update log version " +
                              std::to_string(version));
  }
  // The header checksum covers base_seq: a silently-wrong base would make
  // recovery splice the log onto the wrong checkpoint.
  DSIG_RETURN_IF_ERROR(reader.VerifySection("update log header"));

  replay.committed_bytes = kHeaderBytes;
  uint8_t frame[kFrameBytes];
  // Fewer than 8 bytes left is a torn tail: a partial frame header.
  while (reader.remaining() >= 8) {
    const uint64_t pos = reader.position();
    reader.ReadRaw(frame, 8);
    DSIG_RETURN_IF_ERROR(reader.status());
    // A torn append leaves a strict prefix of a valid frame, so a complete
    // length field always holds the real length; anything else is bit rot.
    const uint32_t payload_len = LoadLE<uint32_t>(frame);
    if (payload_len != kPayloadBytes) {
      return Status::Corruption("update log record at byte " +
                                std::to_string(pos) + " has length " +
                                std::to_string(payload_len));
    }
    if (reader.remaining() < kPayloadBytes) break;  // torn: partial payload
    reader.ReadRaw(frame + 8, kPayloadBytes);
    DSIG_RETURN_IF_ERROR(reader.status());
    if (Crc32c(frame + 8, kPayloadBytes) != LoadLE<uint32_t>(frame + 4)) {
      // Bad checksum on the *last* frame is the torn-write signature (a
      // crashed writer's final sectors may persist partially); bad checksum
      // with committed bytes after it can only be corruption.
      if (reader.AtEnd()) break;
      return Status::Corruption("update log record at byte " +
                                std::to_string(pos) +
                                " failed its checksum mid-log");
    }
    const UpdateRecord record = DecodePayload(frame + 8);
    // The checksum proves these bytes are what the writer wrote, so a
    // semantically invalid record is a writer bug or checksummed garbage —
    // never a torn tail.
    DSIG_RETURN_IF_ERROR(record.Validate());
    replay.records.push_back(record);
    replay.committed_bytes = reader.position();
  }
  replay.torn_bytes = end - replay.committed_bytes;
  return replay;
}

StatusOr<std::unique_ptr<UpdateLog>> UpdateLog::Open(
    const std::string& path, const WriteFaultPlan& faults) {
  StatusOr<WalReplay> replay = Replay(path);
  if (!replay.ok()) return replay.status();

  std::unique_ptr<UpdateLog> log(new UpdateLog());
  // Positioning at the committed end drops any crash-torn tail, so new
  // appends extend the committed prefix.
  log->writer_ =
      std::make_unique<BinaryWriter>(path, replay->committed_bytes);
  DSIG_RETURN_IF_ERROR(log->writer_->status());
  log->writer_->InjectFaults(faults);
  log->base_seq_ = replay->base_seq;
  log->record_count_ = replay->records.size();
  return log;
}

Status UpdateLog::Append(const UpdateRecord& record) {
  if (!status().ok()) return status();
  Status valid = record.Validate();
  if (!valid.ok()) return valid;  // caller bug; do not latch the log

  uint8_t frame[kFrameBytes];
  EncodeFrame(record, frame);
  writer_->WriteRaw(frame, kFrameBytes);
  if (!status().ok()) return status();

  ++record_count_;
  static obs::Counter* records =
      obs::MetricsRegistry::Global().GetCounter("wal.records");
  static obs::Counter* bytes =
      obs::MetricsRegistry::Global().GetCounter("wal.bytes");
  records->Add(1);
  bytes->Add(kFrameBytes);
  return status();
}

Status UpdateLog::Sync() {
  if (!status().ok() || !writer_->is_open()) return status();
  {
    static obs::Histogram* const fsync_ms =
        obs::MetricsRegistry::Global().GetHistogram("wal.fsync_ms");
    const obs::ScopedTimer timer(fsync_ms);
    writer_->Sync();
  }
  if (status().ok()) {
    static obs::Counter* syncs =
        obs::MetricsRegistry::Global().GetCounter("wal.syncs");
    syncs->Add(1);
  }
  return status();
}

Status UpdateLog::Close() {
  if (!writer_->is_open()) return status();
  Sync();
  return writer_->Close();
}

}  // namespace dsig
