// Persistence of road networks and signature indexes.
//
// A deployment builds the index once (minutes of Dijkstras) and serves
// queries from a loaded copy, so a corrupt or stale index file silently
// producing wrong distances is the deployment's biggest risk. The format and
// API are built around that:
//
//   * Errors are values (util/status.h) — a truncated, bit-flipped, or
//     wrong-version file yields a descriptive Status, never an abort.
//   * Every section of the file carries a CRC-32C, and a footer records the
//     payload length, so truncation and bit rot are caught at load time.
//   * Every length field is validated against the bytes actually remaining
//     before any allocation.
//   * Saves go through util/binary_io's AtomicReplace: `<path>.tmp` is
//     written, fsync'd and renamed into place, then the directory is
//     fsync'd, so a failed save never clobbers a good file and a finished
//     one survives a power loss.
//   * LoadOptions::verify additionally runs SignatureIndex::Verify() — the
//     deep invariant check (link chains, categories, compression rule) — for
//     paranoid deployments.
//
// Format version history:
//   1  magic + version + raw fields, no integrity metadata (retired).
//   2  per-section CRC-32C + length footer (current).
//
// The index file stores everything but the spanning forest (rebuild it with
// SignatureIndex::RebuildForest() if you need updates) and is validated
// against the graph it is loaded for.
#ifndef DSIG_IO_PERSISTENCE_H_
#define DSIG_IO_PERSISTENCE_H_

#include <memory>
#include <string>

#include "core/signature_index.h"
#include "graph/road_network.h"
#include "util/binary_io.h"
#include "util/status.h"

namespace dsig {

// Deterministic fault injection for save/load, threaded through to the
// underlying BinaryWriter/BinaryReader (corruption tests).
struct SaveOptions {
  WriteFaultPlan faults;
};

struct LoadOptions {
  // Run SignatureIndex::Verify() after loading (index loads only): proves
  // the deep invariants at O(|V|·|objects|) cost instead of trusting the
  // checksums alone.
  bool verify = false;
  ReadFaultPlan faults;
};

// --- road networks --------------------------------------------------------

// Writes the network (positions, edges incl. tombstones, weights) to `path`
// through AtomicReplace.
Status SaveRoadNetwork(const RoadNetwork& graph, const std::string& path,
                       const SaveOptions& options = {});

// Loads a network. Round-trips node ids, edge ids, and adjacency slot order
// exactly (backtracking links depend on it).
StatusOr<std::unique_ptr<RoadNetwork>> LoadRoadNetwork(
    const std::string& path, const LoadOptions& options = {});

// --- signature indexes ----------------------------------------------------

Status SaveSignatureIndex(const SignatureIndex& index, const std::string& path,
                          const SaveOptions& options = {});

// Loads an index over `graph` (which must be the very network the index was
// built on — node/edge counts are checked, and no node may hold more than
// the 256 adjacency slots a one-byte link addresses). The loaded index has
// no attached storage and no forest.
StatusOr<std::unique_ptr<SignatureIndex>> LoadSignatureIndex(
    const RoadNetwork& graph, const std::string& path,
    const LoadOptions& options = {});

}  // namespace dsig

#endif  // DSIG_IO_PERSISTENCE_H_
