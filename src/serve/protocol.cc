#include "serve/protocol.h"

#include <bit>

#include "util/binary_io.h"

namespace dsig {
namespace serve {
namespace {

// Scalar writers and a bounds-checked reader over util/binary_io's
// little-endian codec, the one every persisted format uses.
template <typename T>
void Append(std::vector<uint8_t>* out, T v) {
  out->resize(out->size() + sizeof(T));
  StoreLE(out->data() + out->size() - sizeof(T), v);
}

void AppendU8(std::vector<uint8_t>* out, uint8_t v) { Append(out, v); }
void AppendU32(std::vector<uint8_t>* out, uint32_t v) { Append(out, v); }
void AppendU64(std::vector<uint8_t>* out, uint64_t v) { Append(out, v); }
void AppendF64(std::vector<uint8_t>* out, double v) {
  Append(out, std::bit_cast<uint64_t>(v));
}

// Cursor over an untrusted payload: every read is bounds-checked.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  bool Read(T* v) {
    if (pos_ + sizeof(T) > size_) return false;
    *v = LoadLE<T>(data_ + pos_);
    pos_ += sizeof(T);
    return true;
  }
  bool ReadU8(uint8_t* v) { return Read(v); }
  bool ReadU32(uint32_t* v) { return Read(v); }
  bool ReadU64(uint64_t* v) { return Read(v); }
  bool ReadF64(double* v) {
    uint64_t bits;
    if (!ReadU64(&bits)) return false;
    *v = std::bit_cast<double>(bits);
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
  AppendU32(out, kFrameMagic);
  AppendU32(out, 0);  // payload_len, patched by FinishFrame
  return out->size();
}

void FinishFrame(std::vector<uint8_t>* out, size_t payload_start) {
  StoreLE(out->data() + payload_start - 4,
          static_cast<uint32_t>(out->size() - payload_start));
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
  if (LoadLE<uint32_t>(header) != kFrameMagic) {
    return Status::Corruption("bad frame magic");
  }
  const uint32_t len = LoadLE<uint32_t>(header + 4);
  if (len > kMaxFrameBytes) {
    return Status::Corruption("frame length " + std::to_string(len) +
                              " exceeds limit");
  }
  *payload_len = len;
  return Status::Ok();
}

void EncodeRequest(const Request& request, std::vector<uint8_t>* out) {
  const size_t payload = BeginFrame(out);
  AppendU8(out, static_cast<uint8_t>(request.type));
  AppendU64(out, request.id);
  AppendF64(out, request.deadline_ms);
  AppendU32(out, request.node);
  AppendU32(out, request.k);
  AppendU8(out, request.knn_type);
  AppendF64(out, request.epsilon);
  AppendU8(out, request.update_op);
  AppendU32(out, request.a);
  AppendU32(out, request.b);
  AppendF64(out, request.weight);
  AppendU64(out, request.trace_id);
  AppendU32(out, request.tenant_id);
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
  AppendU64(out, response.id);
  AppendU8(out, static_cast<uint8_t>(response.status));
  AppendU8(out, static_cast<uint8_t>(response.degradation));
  AppendF64(out, response.retry_after_ms);

  AppendU32(out, static_cast<uint32_t>(response.objects.size()));
  for (const uint32_t o : response.objects) AppendU32(out, o);
  AppendU32(out, static_cast<uint32_t>(response.distances.size()));
  for (const double d : response.distances) AppendF64(out, d);
  AppendU32(out, static_cast<uint32_t>(response.pair_left.size()));
  for (size_t i = 0; i < response.pair_left.size(); ++i) {
    AppendU32(out, response.pair_left[i]);
    AppendU32(out, response.pair_right[i]);
  }

  AppendU64(out, response.update_seq);
  AppendU64(out, response.rows_rewritten);
  AppendU64(out, response.num_nodes);
  AppendU64(out, response.num_objects);
  AppendF64(out, response.suggested_epsilon);

  AppendU32(out, static_cast<uint32_t>(response.text.size()));
  out->insert(out->end(), response.text.begin(), response.text.end());

  AppendU64(out, response.trace_id);
  AppendU32(out, response.tenant_id);
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
