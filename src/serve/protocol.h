// Wire protocol for the dsig serving front-end.
//
// A deliberately small length-prefixed binary protocol over a byte stream
// (TCP): every message is one frame
//
//   magic (u32, "DSRV") · payload_len (u32) · payload
//
// and payloads are flat little-endian structs (PutU32/PutF64 style, matching
// io/binary_io conventions). Each message type has one fixed layout: every
// field below is always on the wire, in declaration order, and a decoder
// rejects a payload that ends early or runs on past the last field as
// kCorruption. There is no version byte: the magic plus the exact length
// already reject any other layout, and every peer (the server, the
// dsig_loadgen / dsig_tool clients, servebench) builds from this tree, so
// a server and its clients must come from the same commit.
//
// Requests carry a relative deadline and a request id; responses echo the
// id and carry a typed status:
//
//   kOk                the full answer
//   kRetryAfter        load-shed at admission; retry_after_ms is a hint
//   kDeadlineExceeded  the deadline passed mid-query; payload is the typed
//                      partial result the query layer produced
//   kShuttingDown      the server is draining; do not retry here
//   kError             the request was malformed or inapplicable
//
// plus a degradation tag: kNone for the exact path, kOverload when the
// planner ran the query category-only (`refine = false` in query/), and
// kDecodeFault when the index recomputed rows via bounded Dijkstra during
// this request (OpCounters::decode_fallbacks delta on the serving thread).
#ifndef DSIG_SERVE_PROTOCOL_H_
#define DSIG_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/slo.h"
#include "util/status.h"

namespace dsig {
namespace serve {

inline constexpr uint32_t kFrameMagic = 0x56525344;  // "DSRV"
inline constexpr uint32_t kMaxFrameBytes = 8u << 20;
inline constexpr size_t kFrameHeaderBytes = 8;

enum class RequestType : uint8_t {
  kPing = 1,
  kKnn = 2,
  kRange = 3,
  kJoin = 4,
  kUpdate = 5,
  kStats = 6,
  kSlo = 7,  // SLO health report: greppable text + structured classes
};

enum class ResponseStatus : uint8_t {
  kOk = 0,
  kRetryAfter = 1,
  kDeadlineExceeded = 2,
  kShuttingDown = 3,
  kError = 4,
};

enum class Degradation : uint8_t {
  kNone = 0,
  kOverload = 1,
  kDecodeFault = 2,
};

const char* RequestTypeName(RequestType type);
const char* ResponseStatusName(ResponseStatus status);
const char* DegradationName(Degradation degradation);

// One request frame. Fields are overloaded by type, mirroring the query
// APIs: kKnn uses node/k/knn_type; kRange and kJoin use node/epsilon;
// kUpdate uses update_op/a/b/weight (core/update_log.h's UpdateRecord).
struct Request {
  RequestType type = RequestType::kPing;
  uint64_t id = 0;
  double deadline_ms = 0;  // relative budget; <= 0 means none

  uint32_t node = 0;
  uint32_t k = 0;
  uint8_t knn_type = 1;  // 1..3, KnnResultType + 1
  double epsilon = 0;

  uint8_t update_op = 0;  // UpdateRecord::Op
  uint32_t a = 0;
  uint32_t b = 0;
  double weight = 0;

  // End-to-end trace id, minted by the client (loadgen) and echoed in the
  // response; 0 means "none" and the server mints one itself.
  uint64_t trace_id = 0;

  // Tenant id for fair-share admission (serve/admission.h); 0 is
  // kDefaultTenant. Ids the server has no configuration for fold into the
  // default tenant — a hostile client cannot mint per-tenant state by
  // inventing ids.
  uint32_t tenant_id = 0;
};

inline constexpr uint32_t kDefaultTenant = 0;

// One response frame.
struct Response {
  uint64_t id = 0;
  ResponseStatus status = ResponseStatus::kOk;
  Degradation degradation = Degradation::kNone;
  double retry_after_ms = 0;

  // kKnn / kRange / kJoin payloads. kKnn fills objects (+ distances when the
  // request asked for type 1); kRange fills objects; kJoin fills pair_left /
  // pair_right aligned.
  std::vector<uint32_t> objects;
  std::vector<double> distances;
  std::vector<uint32_t> pair_left;
  std::vector<uint32_t> pair_right;

  // kUpdate payload: the WAL sequence number the update committed at (the
  // ack clients key durability on) and the number of rows rewritten.
  uint64_t update_seq = 0;
  uint64_t rows_rewritten = 0;

  // kPing payload: what a client needs to generate a sensible workload.
  uint64_t num_nodes = 0;
  uint64_t num_objects = 0;
  double suggested_epsilon = 0;

  // kStats / kSlo / kError payload: metrics JSON, SLO health text, or an
  // error message.
  std::string text;

  // Echo of the request's trace id (server-minted when the request carried
  // none).
  uint64_t trace_id = 0;

  // Windowed serve-path latency summary (kStats / kSlo / kPing): what the
  // server's rolling 60 s window says right now, so clients can compare
  // their observed tail against the server's own without parsing JSON.
  struct WindowStats {
    double p50_ms = 0;
    double p99_ms = 0;
    uint64_t count = 0;
    double queued_p99_ms = 0;    // admission queue wait, same window
    double lifetime_p99_ms = 0;  // process-lifetime histogram, for contrast
  };
  WindowStats window;

  // Per-class SLO health (kStats / kSlo): machine-readable burn-rate state.
  std::vector<obs::SloClassHealth> slo;

  // The tenant id the server resolved this request to (after folding
  // unknown ids into the default tenant), echoed so clients can see which
  // fair-share bucket billed them.
  uint32_t tenant_id = 0;
};

// Frame (magic + length + payload) encoders; append to `out`.
void EncodeRequest(const Request& request, std::vector<uint8_t>* out);
void EncodeResponse(const Response& response, std::vector<uint8_t>* out);

// Decode one frame payload (the bytes after the 8-byte header). A short or
// over-long payload and other corruption come back as kCorruption, range
// violations as kInvalidArgument — a serving process must never abort on
// untrusted bytes.
StatusOr<Request> DecodeRequest(const uint8_t* payload, size_t size);
StatusOr<Response> DecodeResponse(const uint8_t* payload, size_t size);

// Validates a frame header; on success sets `payload_len`.
Status CheckFrameHeader(const uint8_t header[kFrameHeaderBytes],
                        uint32_t* payload_len);

}  // namespace serve
}  // namespace dsig

#endif  // DSIG_SERVE_PROTOCOL_H_
