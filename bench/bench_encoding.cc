// E3 — Table 1: effectiveness of encoding and compression.
//
// For each dataset: the raw signature size (fixed-length category ids), the
// entropy-coded size and its ratio, and the compressed size and its ratio.
// Paper: encoding ratio ~0.74 across datasets (3 -> ~1.4 bits/id);
// compression flags ~70% of entries; compressed/encoded ~0.75-0.9.
//
// A second exhibit measures the codec kernels themselves: EncodeRow /
// TryDecodeRowStage / TryDecodeEntry throughput (entries/s and MB/s of
// encoded bytes) for each category-code scheme, on synthetic rows whose
// category distribution matches the reverse-zero-padding premise (each
// category outweighs all earlier ones). These rows gate the word-level
// kernel work: every query decodes through this path.
#include "bench/bench_common.h"

#include <bit>

#include "core/cross_node.h"
#include "core/encoding.h"
#include "core/row_stage.h"
#include "util/random.h"
#include "util/simd/simd.h"

int main(int argc, char** argv) {
  using namespace dsig;
  using namespace dsig::bench;
  using simd::KernelTable;

  const Flags flags(argc, argv);
  if (!ApplyObsFlags(flags)) return 1;
  const size_t nodes = static_cast<size_t>(flags.GetInt("nodes", 8000));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  BenchJson json(flags, "encoding");
  json.SetParam("nodes", static_cast<double>(nodes));
  json.SetParam("seed", static_cast<double>(seed));

  std::printf("=== Table 1: encoding and compression on signatures ===\n");
  std::printf("%zu-node synthetic network, T=10, c=e\n\n", nodes);

  const RoadNetwork graph = MakeRandomPlanar({.num_nodes = nodes, .seed = seed});

  const std::vector<NodeId> order = ComputeCcamOrder(graph, 64);
  TablePrinter table({"dataset p", "Raw (MB)", "Encoded (MB)", "Ratio",
                      "Compressed (MB)", "Ratio", "entries flagged",
                      "x-node Ratio"});
  for (const DatasetSpec& spec : PaperDatasets()) {
    const std::vector<NodeId> objects = MakeDataset(graph, spec, seed + 1);
    std::unique_ptr<SignatureIndex> index;
    const Measurement m = MeasureOnce(nullptr, [&] {
      index = BuildSignatureIndex(
          graph, objects, {.t = 10, .c = 2.718281828, .keep_forest = false});
    });
    const SignatureSizeStats& s = index->size_stats();
    // §7 future-work ablation: cross-node deltas on top of the stored form.
    const CrossNodeStats cross =
        AnalyzeCrossNodeCompression(*index, order, /*max_chain=*/8);
    auto* point = json.Add("encoding", "Signature", spec.label, m);
    if (point != nullptr) {
      point->metrics["raw_mb"] = ToMb(s.raw_bits / 8);
      point->metrics["encoded_mb"] = ToMb(s.encoded_bits / 8);
      point->metrics["encoded_ratio"] = s.EncodedRatio();
      point->metrics["compressed_mb"] = ToMb(s.compressed_bits / 8);
      point->metrics["compressed_ratio"] = s.CompressedRatio();
      point->metrics["cross_node_ratio"] = cross.Ratio();
    }
    table.AddRow({spec.label, Fmt("%.3f", ToMb(s.raw_bits / 8)),
                  Fmt("%.3f", ToMb(s.encoded_bits / 8)),
                  Fmt("%.2f", s.EncodedRatio()),
                  Fmt("%.3f", ToMb(s.compressed_bits / 8)),
                  Fmt("%.2f", s.CompressedRatio()),
                  Fmt("%.0f%%", 100.0 * static_cast<double>(
                                            s.compressed_entries) /
                                    static_cast<double>(s.entries)),
                  Fmt("%.2f", cross.Ratio())});
  }
  table.Print();

  // --- Codec kernel throughput -------------------------------------------
  // Synthetic rows, skewed so category k carries weight 2^k (the RZP
  // premise): the realistic regime where most category codes are 1-3 bits.
  constexpr size_t kThroughputRows = 256;
  constexpr size_t kEntriesPerRow = 256;
  constexpr int kCategories = 8;
  constexpr int kLinkBits = 4;
  constexpr int kEncodeReps = 6;
  constexpr int kDecodeReps = 12;
  Random trng(seed + 99);
  std::vector<SignatureRow> plain_rows(kThroughputRows);
  std::vector<uint64_t> frequencies(kCategories, 0);
  for (SignatureRow& row : plain_rows) {
    row.resize(kEntriesPerRow);
    for (SignatureEntry& entry : row) {
      // P(category = k) proportional to 2^k: draw r in [1, 2^m - 1] and take
      // the bit width, so each category outweighs all earlier ones combined.
      const uint64_t r = 1 + trng.NextUint64((uint64_t{1} << kCategories) - 1);
      entry.category = static_cast<uint8_t>(std::bit_width(r) - 1);
      entry.link = static_cast<uint8_t>(trng.NextUint64(1u << kLinkBits));
      entry.compressed = trng.NextBool(0.4);
      if (!entry.compressed) ++frequencies[entry.category];
    }
  }
  const size_t total_entries = kThroughputRows * kEntriesPerRow;

  std::printf("\n=== Codec kernel throughput (%zu rows x %zu entries) ===\n",
              kThroughputRows, kEntriesPerRow);
  TablePrinter tput({"code", "op", "Mentries/s", "MB/s", "ms/pass"});
  uint64_t sink = 0;  // defeats dead-code elimination of the decode loops
  const std::vector<int> encode_passes(kEncodeReps, 0);
  const std::vector<int> decode_passes(kDecodeReps, 0);
  for (const CategoryCodeKind kind : kAllCategoryCodeKinds) {
    const SignatureCodec codec(
        BuildCategoryCode(kind, kCategories, frequencies), kLinkBits,
        /*has_flags=*/true);
    std::vector<EncodedRow> encoded(plain_rows.size());
    const Measurement enc = MeasureItems(nullptr, encode_passes, [&](int) {
      for (size_t r = 0; r < plain_rows.size(); ++r) {
        encoded[r] = codec.EncodeRow(plain_rows[r]);
      }
    });
    uint64_t encoded_bytes = 0;
    for (const EncodedRow& row : encoded) encoded_bytes += row.bytes.size();
    // One reused stage, as a query loop's thread_local scratch is.
    RowStage stage;
    const Measurement dec = MeasureItems(nullptr, decode_passes, [&](int) {
      for (const EncodedRow& row : encoded) {
        sink += codec.TryDecodeRowStage(row, kEntriesPerRow, &stage);
        sink += stage.links()[kEntriesPerRow - 1];
      }
    });
    const Measurement ent = MeasureItems(nullptr, decode_passes, [&](int) {
      SignatureEntry entry;
      for (const EncodedRow& row : encoded) {
        // Every 8th component: the checkpoint-scan path queries actually hit.
        for (uint32_t i = 0; i < kEntriesPerRow; i += 8) {
          sink += codec.TryDecodeEntry(row, i, &entry, nullptr);
          sink += entry.link;
        }
      }
    });
    const auto add_point = [&](const char* op, const Measurement& m,
                               size_t entries_per_pass) {
      const double seconds_per_pass = m.mean_ms / 1e3;
      const double entries_per_s =
          static_cast<double>(entries_per_pass) / seconds_per_pass;
      const double mb_per_s =
          ToMb(encoded_bytes) / seconds_per_pass;
      tput.AddRow({CategoryCodeKindName(kind), op,
                   Fmt("%.1f", entries_per_s / 1e6), Fmt("%.1f", mb_per_s),
                   Fmt("%.3f", m.mean_ms)});
      auto* point = json.Add("codec_throughput", CategoryCodeKindName(kind),
                             op, m);
      if (point != nullptr) {
        point->metrics["entries_per_s"] = entries_per_s;
        point->metrics["mb_per_s"] = mb_per_s;
        point->metrics["encoded_bytes"] = static_cast<double>(encoded_bytes);
      }
    };
    add_point("encode", enc, total_entries);
    add_point("decode", dec, total_entries);
    add_point("decode_entry", ent, kThroughputRows * (kEntriesPerRow / 8));
  }
  tput.Print();
  std::printf("(sink %llu)\n", static_cast<unsigned long long>(sink));

  // --- SIMD query-kernel throughput --------------------------------------
  // The three kernel families the query layer runs per row (util/simd):
  // category-scan (range/knn/join band extraction), voting/aggregate
  // (distance aggregation), approx-compare/compact (reverse-kNN near/far
  // partition). One lane buffer sized like a dense row, same RZP-skewed
  // category mix as above, measured at every compiled dispatch level.
  constexpr size_t kLanes = 4096;
  constexpr int kKernelPasses = 2000;
  std::vector<uint8_t> cat_lanes(kLanes);
  std::vector<double> dist_lanes(kLanes);
  for (size_t i = 0; i < kLanes; ++i) {
    const uint64_t r = 1 + trng.NextUint64((uint64_t{1} << kCategories) - 1);
    cat_lanes[i] = static_cast<uint8_t>(std::bit_width(r) - 1);
    // ~30% far pairs, matching a mid-density object-distance-table row.
    dist_lanes[i] = trng.NextBool(0.3)
                        ? kInfiniteWeight
                        : static_cast<double>(1 + trng.NextUint64(100000));
  }
  std::vector<uint32_t> extracted(kLanes);
  std::vector<double> compacted(kLanes);
  const std::vector<int> kernel_passes(kKernelPasses, 0);
  // The band the query layer most often extracts: everything below the top
  // category (roughly half the lanes under the RZP skew).
  const int band_hi = kCategories - 1;

  std::printf("\n=== SIMD query-kernel throughput (%zu lanes/pass) ===\n",
              kLanes);
  std::printf("dispatch: %s\n", simd::CpuFeatureString().c_str());
  TablePrinter ksimd({"kernel", "level", "Mlanes/s", "ms/pass", "vs scalar"});
  struct KernelOp {
    const char* name;
    void (*run)(const KernelTable&, const std::vector<uint8_t>&,
                const std::vector<double>&, int, std::vector<uint32_t>*,
                std::vector<double>*, uint64_t*);
  };
  const KernelOp kernel_ops[] = {
      {"category_scan",
       [](const KernelTable& k, const std::vector<uint8_t>& cats,
          const std::vector<double>&, int hi, std::vector<uint32_t>* out,
          std::vector<double>*, uint64_t* s) {
         *s += k.extract_in_range(cats.data(), cats.size(), 0, hi, out->data());
       }},
      {"voting_aggregate",
       [](const KernelTable& k, const std::vector<uint8_t>&,
          const std::vector<double>& dists, int, std::vector<uint32_t>*,
          std::vector<double>*, uint64_t* s) {
         double sum = 0, mn = 0, mx = 0;
         k.aggregate_f64(dists.data(), dists.size(), &sum, &mn, &mx);
         *s += static_cast<uint64_t>(mx);
       }},
      {"approx_compact",
       [](const KernelTable& k, const std::vector<uint8_t>&,
          const std::vector<double>& dists, int, std::vector<uint32_t>*,
          std::vector<double>* out, uint64_t* s) {
         *s += k.compact_finite_f64(dists.data(), dists.size(), out->data());
       }},
  };
  for (const KernelOp& op : kernel_ops) {
    double scalar_rate = 0;
    for (const simd::SimdLevel level : simd::AvailableLevels()) {
      simd::SimdOverride pin(level);
      if (!pin.applied()) continue;
      const KernelTable& k = simd::Kernels();
      const Measurement m = MeasureItems(nullptr, kernel_passes, [&](int) {
        op.run(k, cat_lanes, dist_lanes, band_hi, &extracted, &compacted,
               &sink);
      });
      const double lanes_per_s =
          static_cast<double>(kLanes) / (m.mean_ms / 1e3);
      if (level == simd::SimdLevel::kScalar) scalar_rate = lanes_per_s;
      const double speedup = scalar_rate > 0 ? lanes_per_s / scalar_rate : 1;
      ksimd.AddRow({op.name, simd::SimdLevelName(level),
                    Fmt("%.0f", lanes_per_s / 1e6), Fmt("%.4f", m.mean_ms),
                    Fmt("%.2fx", speedup)});
      auto* point =
          json.Add("kernel_throughput", simd::SimdLevelName(level), op.name, m);
      if (point != nullptr) {
        point->metrics["lanes_per_s"] = lanes_per_s;
        point->metrics["speedup_vs_scalar"] = speedup;
      }
    }
  }
  ksimd.Print();
  std::printf("(sink %llu)\n", static_cast<unsigned long long>(sink));

  std::printf(
      "\nExpected shape: encoding ratio roughly constant (~0.6-0.8);\n"
      "compression ratio improves (smaller) as density p grows.\n"
      "x-node = paper's §7 future-work cross-node compression, relative to\n"
      "the stored (within-row compressed) size; < 1 confirms the hypothesis\n"
      "that nearby nodes' signatures are similar enough to delta-encode.\n");
  json.Write();
  return 0;
}
