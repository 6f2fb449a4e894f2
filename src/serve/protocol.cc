#include "serve/protocol.h"

#include <cstring>

namespace dsig {
namespace serve {
namespace {

// Little-endian scalar writers/readers, matching io/binary_io conventions.
void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutF64(std::vector<uint8_t>* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

// Cursor over an untrusted payload: every read is bounds-checked.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool ReadU8(uint8_t* v) {
    if (pos_ + 1 > size_) return false;
    *v = data_[pos_++];
    return true;
  }
  bool ReadU32(uint32_t* v) {
    if (pos_ + 4 > size_) return false;
    uint32_t r = 0;
    for (int i = 3; i >= 0; --i) r = r << 8 | data_[pos_ + i];
    pos_ += 4;
    *v = r;
    return true;
  }
  bool ReadU64(uint64_t* v) {
    if (pos_ + 8 > size_) return false;
    uint64_t r = 0;
    for (int i = 7; i >= 0; --i) r = r << 8 | data_[pos_ + i];
    pos_ += 8;
    *v = r;
    return true;
  }
  bool ReadF64(double* v) {
    uint64_t bits;
    if (!ReadU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  size_t remaining() const { return size_ - pos_; }
  const uint8_t* cursor() const { return data_ + pos_; }
  void Skip(size_t n) { pos_ += n; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// Reserves the 8-byte frame header, returning the offset where the payload
// starts so FinishFrame can backfill the length.
size_t BeginFrame(std::vector<uint8_t>* out) {
  PutU32(out, kFrameMagic);
  PutU32(out, 0);  // payload_len, patched by FinishFrame
  return out->size();
}

void FinishFrame(std::vector<uint8_t>* out, size_t payload_start) {
  const uint32_t len = static_cast<uint32_t>(out->size() - payload_start);
  (*out)[payload_start - 4] = static_cast<uint8_t>(len);
  (*out)[payload_start - 3] = static_cast<uint8_t>(len >> 8);
  (*out)[payload_start - 2] = static_cast<uint8_t>(len >> 16);
  (*out)[payload_start - 1] = static_cast<uint8_t>(len >> 24);
}

}  // namespace

const char* RequestTypeName(RequestType type) {
  switch (type) {
    case RequestType::kPing: return "ping";
    case RequestType::kKnn: return "knn";
    case RequestType::kRange: return "range";
    case RequestType::kJoin: return "join";
    case RequestType::kUpdate: return "update";
    case RequestType::kStats: return "stats";
    case RequestType::kSlo: return "slo";
  }
  return "unknown";
}

const char* ResponseStatusName(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk: return "OK";
    case ResponseStatus::kRetryAfter: return "RETRY_AFTER";
    case ResponseStatus::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case ResponseStatus::kShuttingDown: return "SHUTTING_DOWN";
    case ResponseStatus::kError: return "ERROR";
  }
  return "unknown";
}

const char* DegradationName(Degradation degradation) {
  switch (degradation) {
    case Degradation::kNone: return "none";
    case Degradation::kOverload: return "overload";
    case Degradation::kDecodeFault: return "decode_fault";
  }
  return "unknown";
}

Status CheckFrameHeader(const uint8_t header[kFrameHeaderBytes],
                        uint32_t* payload_len) {
  uint32_t magic = 0;
  for (int i = 3; i >= 0; --i) magic = magic << 8 | header[i];
  if (magic != kFrameMagic) {
    return Status::Corruption("bad frame magic");
  }
  uint32_t len = 0;
  for (int i = 3; i >= 0; --i) len = len << 8 | header[4 + i];
  if (len > kMaxFrameBytes) {
    return Status::Corruption("frame length " + std::to_string(len) +
                              " exceeds limit");
  }
  *payload_len = len;
  return Status::Ok();
}

void EncodeRequest(const Request& request, std::vector<uint8_t>* out) {
  const size_t payload = BeginFrame(out);
  PutU8(out, static_cast<uint8_t>(request.type));
  PutU64(out, request.id);
  PutF64(out, request.deadline_ms);
  PutU32(out, request.node);
  PutU32(out, request.k);
  PutU8(out, request.knn_type);
  PutF64(out, request.epsilon);
  PutU8(out, request.update_op);
  PutU32(out, request.a);
  PutU32(out, request.b);
  PutF64(out, request.weight);
  PutU64(out, request.trace_id);
  PutU32(out, request.tenant_id);
  FinishFrame(out, payload);
}

StatusOr<Request> DecodeRequest(const uint8_t* payload, size_t size) {
  Reader in(payload, size);
  Request r;
  uint8_t type = 0;
  if (!in.ReadU8(&type) || !in.ReadU64(&r.id) || !in.ReadF64(&r.deadline_ms) ||
      !in.ReadU32(&r.node) || !in.ReadU32(&r.k) || !in.ReadU8(&r.knn_type) ||
      !in.ReadF64(&r.epsilon) || !in.ReadU8(&r.update_op) ||
      !in.ReadU32(&r.a) || !in.ReadU32(&r.b) || !in.ReadF64(&r.weight) ||
      !in.ReadU64(&r.trace_id) || !in.ReadU32(&r.tenant_id)) {
    return Status::Corruption("truncated request payload");
  }
  if (in.remaining() > 0) {
    return Status::Corruption("trailing bytes after request payload");
  }
  if (type < static_cast<uint8_t>(RequestType::kPing) ||
      type > static_cast<uint8_t>(RequestType::kSlo)) {
    return Status::InvalidArgument("unknown request type " +
                                   std::to_string(type));
  }
  r.type = static_cast<RequestType>(type);
  if (r.type == RequestType::kKnn && (r.knn_type < 1 || r.knn_type > 3)) {
    return Status::InvalidArgument("knn result type out of range");
  }
  return r;
}

void EncodeResponse(const Response& response, std::vector<uint8_t>* out) {
  const size_t payload = BeginFrame(out);
  PutU64(out, response.id);
  PutU8(out, static_cast<uint8_t>(response.status));
  PutU8(out, static_cast<uint8_t>(response.degradation));
  PutF64(out, response.retry_after_ms);

  PutU32(out, static_cast<uint32_t>(response.objects.size()));
  for (const uint32_t o : response.objects) PutU32(out, o);
  PutU32(out, static_cast<uint32_t>(response.distances.size()));
  for (const double d : response.distances) PutF64(out, d);
  PutU32(out, static_cast<uint32_t>(response.pair_left.size()));
  for (size_t i = 0; i < response.pair_left.size(); ++i) {
    PutU32(out, response.pair_left[i]);
    PutU32(out, response.pair_right[i]);
  }

  PutU64(out, response.update_seq);
  PutU64(out, response.rows_rewritten);
  PutU64(out, response.num_nodes);
  PutU64(out, response.num_objects);
  PutF64(out, response.suggested_epsilon);

  PutU32(out, static_cast<uint32_t>(response.text.size()));
  out->insert(out->end(), response.text.begin(), response.text.end());

  PutU64(out, response.trace_id);
  PutU32(out, response.tenant_id);
  FinishFrame(out, payload);
}

StatusOr<Response> DecodeResponse(const uint8_t* payload, size_t size) {
  Reader in(payload, size);
  Response r;
  uint8_t status = 0, degradation = 0;
  if (!in.ReadU64(&r.id) || !in.ReadU8(&status) || !in.ReadU8(&degradation) ||
      !in.ReadF64(&r.retry_after_ms)) {
    return Status::Corruption("truncated response payload");
  }
  if (status > static_cast<uint8_t>(ResponseStatus::kError)) {
    return Status::Corruption("unknown response status");
  }
  if (degradation > static_cast<uint8_t>(Degradation::kDecodeFault)) {
    return Status::Corruption("unknown degradation tag");
  }
  r.status = static_cast<ResponseStatus>(status);
  r.degradation = static_cast<Degradation>(degradation);

  uint32_t count = 0;
  if (!in.ReadU32(&count) || in.remaining() < count * 4ull) {
    return Status::Corruption("truncated response objects");
  }
  r.objects.resize(count);
  for (uint32_t& o : r.objects) in.ReadU32(&o);
  if (!in.ReadU32(&count) || in.remaining() < count * 8ull) {
    return Status::Corruption("truncated response distances");
  }
  r.distances.resize(count);
  for (double& d : r.distances) in.ReadF64(&d);
  if (!in.ReadU32(&count) || in.remaining() < count * 8ull) {
    return Status::Corruption("truncated response pairs");
  }
  r.pair_left.resize(count);
  r.pair_right.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    in.ReadU32(&r.pair_left[i]);
    in.ReadU32(&r.pair_right[i]);
  }

  if (!in.ReadU64(&r.update_seq) || !in.ReadU64(&r.rows_rewritten) ||
      !in.ReadU64(&r.num_nodes) || !in.ReadU64(&r.num_objects) ||
      !in.ReadF64(&r.suggested_epsilon)) {
    return Status::Corruption("truncated response scalars");
  }
  if (!in.ReadU32(&count) || in.remaining() < count) {
    return Status::Corruption("truncated response text");
  }
  r.text.assign(reinterpret_cast<const char*>(in.cursor()), count);
  in.Skip(count);

  if (!in.ReadU64(&r.trace_id) || !in.ReadU32(&r.tenant_id)) {
    return Status::Corruption("truncated response trace/tenant ids");
  }
  if (in.remaining() > 0) {
    return Status::Corruption("trailing bytes after response payload");
  }
  return r;
}

}  // namespace serve
}  // namespace dsig
