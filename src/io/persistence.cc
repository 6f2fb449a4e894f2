#include "io/persistence.h"

#include <cmath>
#include <utility>
#include <vector>

#include "core/hub_labels.h"
#include "obs/metrics.h"
#include "util/huffman.h"

namespace dsig {
namespace {

constexpr uint32_t kNetworkMagic = 0x4e475344;  // "DSGN"
constexpr uint32_t kIndexMagic = 0x49475344;    // "DSGI"
constexpr uint32_t kFooterMagic = 0x46475344;   // "DSGF"
constexpr uint32_t kVersion = 2;

// Bytes per serialized record, used to bound counts against the file size.
constexpr uint64_t kNodeRecordBytes = 16;    // x, y
constexpr uint64_t kEdgeRecordBytes = 20;    // u, v, weight, removed
constexpr uint64_t kSymbolRecordBytes = 12;  // length, code

Status Corrupt(const std::string& path, const std::string& detail) {
  return Status::Corruption(path + ": " + detail);
}

// The footer pins down the total payload length (everything before the
// footer), so a file truncated at a section boundary — where every section
// checksum still verifies — is still rejected.
void WriteFooter(BinaryWriter& writer) {
  const uint64_t payload_bytes = writer.position();
  writer.BeginSection();
  writer.WriteU32(kFooterMagic);
  writer.WriteU64(payload_bytes);
  writer.EndSection();
}

Status CheckFooter(BinaryReader& reader, const std::string& path) {
  const uint64_t payload_bytes = reader.position();
  reader.BeginSection();
  const uint32_t magic = reader.ReadU32();
  const uint64_t stored = reader.ReadU64();
  DSIG_RETURN_IF_ERROR(reader.VerifySection("footer"));
  if (magic != kFooterMagic) return Corrupt(path, "bad footer magic");
  if (stored != payload_bytes) {
    return Corrupt(path, "footer length " + std::to_string(stored) +
                             " does not match the " +
                             std::to_string(payload_bytes) +
                             " payload bytes present");
  }
  if (!reader.AtEnd()) return Corrupt(path, "trailing bytes after footer");
  return Status::Ok();
}

// Reads and validates the `magic` + version header shared by both formats.
Status CheckHeader(BinaryReader& reader, const std::string& path,
                   uint32_t magic, const char* kind) {
  const uint32_t stored_magic = reader.ReadU32();
  const uint32_t stored_version = reader.ReadU32();
  DSIG_RETURN_IF_ERROR(reader.status());
  if (stored_magic != magic) {
    return Corrupt(path,
                   std::string("not a dsig ") + kind + " file (bad magic)");
  }
  if (stored_version != kVersion) {
    return Corrupt(path, "unsupported format version " +
                             std::to_string(stored_version) + " (expected " +
                             std::to_string(kVersion) + ")");
  }
  return Status::Ok();
}

}  // namespace

Status SaveRoadNetwork(const RoadNetwork& graph, const std::string& path,
                       const SaveOptions& options) {
  static obs::Histogram* const save_ms =
      obs::MetricsRegistry::Global().GetHistogram("persist.save_network_ms");
  const obs::ScopedTimer timer(save_ms);
  return AtomicReplace(path, options.faults, [&graph](BinaryWriter& writer) {
    writer.WriteU32(kNetworkMagic);
    writer.WriteU32(kVersion);

    writer.BeginSection();
    writer.WriteU64(graph.num_nodes());
    for (NodeId n = 0; n < graph.num_nodes(); ++n) {
      writer.WriteDouble(graph.position(n).x);
      writer.WriteDouble(graph.position(n).y);
    }
    writer.EndSection();

    writer.BeginSection();
    writer.WriteU64(graph.num_edge_slots());
    for (EdgeId e = 0; e < graph.num_edge_slots(); ++e) {
      const auto [u, v] = graph.edge_endpoints(e);
      writer.WriteU32(u);
      writer.WriteU32(v);
      writer.WriteDouble(graph.edge_weight(e));
      writer.WriteU32(graph.edge_removed(e) ? 1 : 0);
    }
    writer.EndSection();

    WriteFooter(writer);
  });
}

StatusOr<std::unique_ptr<RoadNetwork>> LoadRoadNetwork(
    const std::string& path, const LoadOptions& options) {
  static obs::Histogram* const load_ms =
      obs::MetricsRegistry::Global().GetHistogram("persist.load_network_ms");
  const obs::ScopedTimer timer(load_ms);
  BinaryReader reader(path);
  reader.InjectFaults(options.faults);
  DSIG_RETURN_IF_ERROR(reader.status());
  DSIG_RETURN_IF_ERROR(CheckHeader(reader, path, kNetworkMagic, "road-network"));

  auto graph = std::make_unique<RoadNetwork>();

  reader.BeginSection();
  const uint64_t nodes = reader.ReadU64();
  DSIG_RETURN_IF_ERROR(reader.status());
  if (nodes > reader.remaining() / kNodeRecordBytes) {
    return Corrupt(path, "node count " + std::to_string(nodes) +
                             " exceeds the bytes left in the file");
  }
  for (uint64_t n = 0; n < nodes; ++n) {
    const double x = reader.ReadDouble();
    const double y = reader.ReadDouble();
    graph->AddNode({x, y});
  }
  DSIG_RETURN_IF_ERROR(reader.VerifySection("node"));

  // Replaying AddEdge in edge-id order reproduces adjacency slot order
  // exactly — backtracking links depend on it. Every field is validated
  // before AddEdge, whose preconditions (distinct existing endpoints,
  // positive finite weight) are CHECK-enforced.
  reader.BeginSection();
  const uint64_t edges = reader.ReadU64();
  DSIG_RETURN_IF_ERROR(reader.status());
  if (edges > reader.remaining() / kEdgeRecordBytes) {
    return Corrupt(path, "edge count " + std::to_string(edges) +
                             " exceeds the bytes left in the file");
  }
  for (uint64_t e = 0; e < edges; ++e) {
    const NodeId u = reader.ReadU32();
    const NodeId v = reader.ReadU32();
    const Weight w = reader.ReadDouble();
    const uint32_t removed = reader.ReadU32();
    DSIG_RETURN_IF_ERROR(reader.status());
    if (u >= nodes || v >= nodes) {
      return Corrupt(path, "edge " + std::to_string(e) +
                               " endpoint out of range");
    }
    if (u == v) {
      return Corrupt(path, "edge " + std::to_string(e) + " is a self-loop");
    }
    if (!std::isfinite(w) || w <= 0) {
      return Corrupt(path, "edge " + std::to_string(e) +
                               " has a non-positive or non-finite weight");
    }
    if (removed > 1) {
      return Corrupt(path, "edge " + std::to_string(e) +
                               " has a malformed tombstone flag");
    }
    const EdgeId id = graph->AddEdge(u, v, w);
    if (removed == 1) graph->RemoveEdge(id);
  }
  DSIG_RETURN_IF_ERROR(reader.VerifySection("edge"));

  DSIG_RETURN_IF_ERROR(CheckFooter(reader, path));
  return graph;
}

Status SaveSignatureIndex(const SignatureIndex& index, const std::string& path,
                          const SaveOptions& options) {
  static obs::Histogram* const save_ms =
      obs::MetricsRegistry::Global().GetHistogram("persist.save_index_ms");
  const obs::ScopedTimer timer(save_ms);
  return AtomicReplace(path, options.faults, [&index](BinaryWriter& writer) {
    writer.WriteU32(kIndexMagic);
    writer.WriteU32(kVersion);

    // Fingerprint of the graph the index belongs to.
    writer.BeginSection();
    writer.WriteU64(index.graph().num_nodes());
    writer.WriteU64(index.graph().num_edge_slots());
    writer.EndSection();

    writer.BeginSection();
    writer.WriteVectorU32(index.objects());
    writer.EndSection();

    const CategoryPartition& partition = index.partition();
    writer.BeginSection();
    writer.WriteVectorDouble(partition.boundaries());
    writer.WriteDouble(partition.t());
    writer.WriteDouble(partition.c());
    writer.EndSection();

    const SignatureCodec& codec = index.codec();
    writer.BeginSection();
    writer.WriteU32(static_cast<uint32_t>(codec.link_bits()));
    writer.WriteU32(codec.has_flags() ? 1 : 0);
    const HuffmanCode& code = codec.category_code();
    writer.WriteU32(static_cast<uint32_t>(code.num_symbols()));
    for (int s = 0; s < code.num_symbols(); ++s) {
      writer.WriteU32(static_cast<uint32_t>(code.length(s)));
      writer.WriteU64(code.code(s));
    }
    writer.EndSection();

    writer.BeginSection();
    for (NodeId n = 0; n < index.graph().num_nodes(); ++n) {
      const EncodedRow& row = index.encoded_row(n);
      writer.WriteU32(row.size_bits);
      writer.WriteBytes(row.bytes);
      writer.WriteVectorU32(row.checkpoints);
    }
    writer.EndSection();

    // Object-object table: full matrix, -1 = far pair.
    const ObjectDistanceTable& table = index.object_table();
    const uint32_t d = static_cast<uint32_t>(index.num_objects());
    writer.BeginSection();
    for (uint32_t u = 0; u < d; ++u) {
      for (uint32_t v = 0; v < d; ++v) {
        writer.WriteDouble(table.IsFar(u, v) ? -1.0 : table.Get(u, v));
      }
    }
    writer.EndSection();

    const SignatureSizeStats& stats = index.size_stats();
    writer.BeginSection();
    writer.WriteU64(stats.raw_bits);
    writer.WriteU64(stats.encoded_bits);
    writer.WriteU64(stats.compressed_bits);
    writer.WriteU64(stats.entries);
    writer.WriteU64(stats.compressed_entries);
    writer.EndSection();

    // Optional hub-label tier: one opaque blob in its own CRC section,
    // between the size stats and the footer. Absent sections keep the file
    // byte-identical to the pre-label format, so old files load unchanged
    // (the loader detects presence by the bytes left before the footer).
    // Stale or undecodable labels are not worth persisting — the planner
    // would never route to them.
    const HubLabels* labels = index.hub_labels();
    if (labels != nullptr && !labels->stale() && labels->ready()) {
      writer.BeginSection();
      writer.WriteBytes(labels->Serialize());
      writer.EndSection();
    }

    WriteFooter(writer);
  });
}

StatusOr<std::unique_ptr<SignatureIndex>> LoadSignatureIndex(
    const RoadNetwork& graph, const std::string& path,
    const LoadOptions& options) {
  static obs::Histogram* const load_ms =
      obs::MetricsRegistry::Global().GetHistogram("persist.load_index_ms");
  const obs::ScopedTimer timer(load_ms);
  BinaryReader reader(path);
  reader.InjectFaults(options.faults);
  DSIG_RETURN_IF_ERROR(reader.status());
  DSIG_RETURN_IF_ERROR(
      CheckHeader(reader, path, kIndexMagic, "signature-index"));

  reader.BeginSection();
  const uint64_t fingerprint_nodes = reader.ReadU64();
  const uint64_t fingerprint_slots = reader.ReadU64();
  DSIG_RETURN_IF_ERROR(reader.VerifySection("graph fingerprint"));
  if (fingerprint_nodes != graph.num_nodes() ||
      fingerprint_slots != graph.num_edge_slots()) {
    return Status::FailedPrecondition(
        path + ": index was built for a different network (" +
        std::to_string(fingerprint_nodes) + " nodes / " +
        std::to_string(fingerprint_slots) + " edge slots vs " +
        std::to_string(graph.num_nodes()) + " / " +
        std::to_string(graph.num_edge_slots()) + ")");
  }
  // Backtracking links and the spanning forest's parent slots are one byte:
  // no index addresses a node with more adjacency slots than that, and
  // RebuildForest could not store such a node's parent.
  if (graph.max_degree() > 256) {
    return Status::FailedPrecondition(
        path + ": the network has a node with " +
        std::to_string(graph.max_degree()) +
        " adjacency slots; a one-byte backtracking link addresses 256");
  }

  reader.BeginSection();
  const std::vector<uint32_t> raw_objects = reader.ReadVectorU32();
  DSIG_RETURN_IF_ERROR(reader.VerifySection("object"));
  std::vector<NodeId> objects(raw_objects.begin(), raw_objects.end());
  // Out-of-range or duplicate object nodes would corrupt the index's
  // node->object map before any query runs; distinctness also bounds the
  // object count (and thus the d*d table below) by |V|.
  std::vector<char> object_seen(graph.num_nodes(), 0);
  for (const NodeId n : objects) {
    if (n >= graph.num_nodes()) {
      return Corrupt(path, "object list names node " + std::to_string(n) +
                               " outside the network");
    }
    if (object_seen[n]) {
      return Corrupt(path,
                     "object list names node " + std::to_string(n) + " twice");
    }
    object_seen[n] = 1;
  }

  reader.BeginSection();
  std::vector<Weight> boundaries = reader.ReadVectorDouble();
  const double t = reader.ReadDouble();
  const double c = reader.ReadDouble();
  DSIG_RETURN_IF_ERROR(reader.VerifySection("partition"));
  if (boundaries.size() > 255) {
    return Corrupt(path, "partition has " + std::to_string(boundaries.size()) +
                             " boundaries (more than 255 categories)");
  }
  for (size_t i = 0; i < boundaries.size(); ++i) {
    const bool ascending =
        i == 0 ? boundaries[i] > 0 : boundaries[i] > boundaries[i - 1];
    if (!std::isfinite(boundaries[i]) || !ascending) {
      return Corrupt(path,
                     "category boundaries are not finite, positive, and "
                     "strictly ascending");
    }
  }
  if (!std::isfinite(t) || !std::isfinite(c) || t < 0 || c < 0) {
    return Corrupt(path, "partition parameters are not finite and >= 0");
  }
  CategoryPartition partition =
      CategoryPartition::Restore(std::move(boundaries), t, c);

  reader.BeginSection();
  const uint32_t link_bits = reader.ReadU32();
  const uint32_t has_flags = reader.ReadU32();
  const uint32_t num_symbols = reader.ReadU32();
  DSIG_RETURN_IF_ERROR(reader.status());
  if (link_bits > 16) {
    return Corrupt(path, "backtracking-link width " +
                             std::to_string(link_bits) + " exceeds 16 bits");
  }
  if (has_flags > 1) {
    return Corrupt(path, "malformed compression-flag marker");
  }
  if (num_symbols !=
      static_cast<uint32_t>(partition.num_categories())) {
    return Corrupt(path, "category code has " + std::to_string(num_symbols) +
                             " symbols but the partition has " +
                             std::to_string(partition.num_categories()) +
                             " categories");
  }
  if (num_symbols > reader.remaining() / kSymbolRecordBytes) {
    return Corrupt(path, "category-code symbol count exceeds the bytes left "
                         "in the file");
  }
  std::vector<int> lengths(num_symbols);
  std::vector<uint64_t> codes(num_symbols);
  for (uint32_t s = 0; s < num_symbols; ++s) {
    lengths[s] = static_cast<int>(reader.ReadU32());
    codes[s] = reader.ReadU64();
  }
  DSIG_RETURN_IF_ERROR(reader.VerifySection("codec"));
  if (!HuffmanCode::PartsAreValid(lengths, codes)) {
    return Corrupt(path, "category code is not a valid prefix code");
  }
  SignatureCodec codec(
      HuffmanCode::FromParts(std::move(lengths), std::move(codes)),
      static_cast<int>(link_bits), has_flags == 1);

  const size_t d = objects.size();
  const uint64_t expected_checkpoints = (d + 31) / 32;
  reader.BeginSection();
  std::vector<EncodedRow> rows(graph.num_nodes());
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    rows[n].size_bits = reader.ReadU32();
    rows[n].bytes = reader.ReadBytes();
    rows[n].checkpoints = reader.ReadVectorU32();
    DSIG_RETURN_IF_ERROR(reader.status());
    if (rows[n].bytes.size() != (rows[n].size_bits + 7) / 8) {
      return Corrupt(path, "row of node " + std::to_string(n) +
                               " has a byte count that disagrees with its "
                               "bit length");
    }
    if (rows[n].checkpoints.size() != expected_checkpoints) {
      return Corrupt(path, "row of node " + std::to_string(n) +
                               " has a malformed checkpoint list");
    }
    for (const uint32_t checkpoint : rows[n].checkpoints) {
      if (checkpoint > rows[n].size_bits) {
        return Corrupt(path, "row of node " + std::to_string(n) +
                                 " has a checkpoint past the end of the row");
      }
    }
  }
  DSIG_RETURN_IF_ERROR(reader.VerifySection("row"));

  reader.BeginSection();
  const uint64_t cells = static_cast<uint64_t>(d) * d;
  if (cells > reader.remaining() / 8) {
    return Corrupt(path,
                   "object-distance table exceeds the bytes left in the file");
  }
  ObjectDistanceTable table(d);
  for (uint32_t u = 0; u < d; ++u) {
    for (uint32_t v = 0; v < d; ++v) {
      const double value = reader.ReadDouble();
      if (value != -1.0 && (!std::isfinite(value) || value < 0)) {
        return Corrupt(path,
                       "object-distance entry is neither the far marker nor "
                       "a finite non-negative distance");
      }
      if (value >= 0 && u < v) table.Set(u, v, value);
    }
    DSIG_RETURN_IF_ERROR(reader.status());
  }
  DSIG_RETURN_IF_ERROR(reader.VerifySection("object table"));

  reader.BeginSection();
  SignatureSizeStats stats;
  stats.raw_bits = reader.ReadU64();
  stats.encoded_bits = reader.ReadU64();
  stats.compressed_bits = reader.ReadU64();
  stats.entries = reader.ReadU64();
  stats.compressed_entries = reader.ReadU64();
  DSIG_RETURN_IF_ERROR(reader.VerifySection("size stats"));

  // Optional hub-label section. The footer is exactly 16 bytes, so anything
  // beyond that here is the label blob; files written before the label tier
  // existed land straight on the footer and load unchanged. The blob is
  // CRC-checked now but *decoded lazily* — the first query that routes
  // through the labels pays the decode, and a blob that then fails its
  // structural checks degrades to "no labels" rather than failing the load.
  std::shared_ptr<HubLabels> labels;
  if (reader.remaining() > 16) {
    reader.BeginSection();
    std::vector<uint8_t> blob = reader.ReadBytes();
    DSIG_RETURN_IF_ERROR(reader.VerifySection("hub labels"));
    labels = HubLabels::FromSerialized(std::move(blob));
  }

  DSIG_RETURN_IF_ERROR(CheckFooter(reader, path));

  auto index = std::make_unique<SignatureIndex>(
      &graph, std::move(objects), std::move(partition), std::move(codec),
      std::move(rows), std::move(table), stats, nullptr);
  index->set_hub_labels(std::move(labels));
  if (options.verify) DSIG_RETURN_IF_ERROR(index->Verify());
  return index;
}

}  // namespace dsig
