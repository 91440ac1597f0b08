#ifndef GORDER_STORE_GPACK_H_
#define GORDER_STORE_GPACK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/edgelist_io.h"  // IoResult
#include "graph/graph.h"

namespace gorder::store {

/// gpack: the versioned binary CSR graph container (DESIGN.md §12).
///
/// Little-endian layout, 64-byte aligned sections:
///
///   [ 0,  64)  header: magic "GPACKBIN", format version, flags,
///              n, m, content fingerprint, section count, header CRC32
///   [64, ...)  section table: one 32-byte entry per section
///              (id, element width, file offset, byte length, CRC32)
///   aligned    section payloads: out_offsets, out_neighbors,
///              in_offsets, in_neighbors — raw CSR arrays, padded to
///              64-byte boundaries so a zero-copy mmap load can cast
///              them in place.
///
/// The header CRC covers the header and the whole section table; every
/// payload carries its own CRC. A pack either loads fully validated
/// (structure, checksums, CSR invariants — monotone offsets, in-range
/// sorted neighbour lists) or fails with a clean IoResult; no load path
/// reads past the mapped bounds, and corrupt input can never abort or
/// invoke UB.
inline constexpr std::uint32_t kGpackFormatVersion = 1;

/// How LoadPack materialises the CSR arrays.
enum class LoadMode {
  kMmap,  // zero-copy: Graph borrows the mapped sections (default)
  kCopy,  // deep copy into owned vectors (mapping released immediately)
};

struct GpackSectionInfo {
  std::string name;       // "out_offsets", "out_neighbors", ...
  std::uint32_t id = 0;
  std::uint32_t item_bytes = 0;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint32_t crc32 = 0;
};

struct GpackInfo {
  std::uint32_t format_version = 0;
  std::uint64_t flags = 0;
  std::uint64_t num_nodes = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t fingerprint = 0;  // GraphFingerprint of the content
  std::uint64_t file_bytes = 0;
  std::vector<GpackSectionInfo> sections;
};

/// Byte layout of a standard four-section pack, computed from (n, m)
/// alone. The in-memory writer (WritePack) and the external-memory
/// builder (src/extmem) both derive their file layout from this, so a
/// pack built out-of-core is byte-identical to one written from an
/// in-memory graph with the same CSR content.
struct GpackLayout {
  std::uint64_t out_offsets = 0;    // file offset of each section payload
  std::uint64_t out_neighbors = 0;
  std::uint64_t in_offsets = 0;
  std::uint64_t in_neighbors = 0;
  std::uint64_t file_bytes = 0;     // total file size (ends at the last
                                    // payload byte, like WritePack)
};
GpackLayout ComputeGpackLayout(std::uint64_t num_nodes,
                               std::uint64_t num_edges);

/// Serialises the 64-byte header plus the four-entry section table for a
/// standard pack — the first 192 bytes of the file. `crcs` are the
/// payload CRC32s in section order (out_offsets, out_neighbors,
/// in_offsets, in_neighbors). Everything between the returned prefix and
/// the first payload (and between payloads) is zero padding. WritePack
/// and the external-memory builder both write exactly this prefix.
std::string SerializeGpackHeader(std::uint64_t num_nodes,
                                 std::uint64_t num_edges,
                                 std::uint64_t fingerprint,
                                 const std::uint32_t crcs[4]);

/// Writes `graph` as a gpack at `path` (atomically: staged to a
/// temporary file in the same directory, then renamed). Buffered
/// streaming — the CSR arrays are written in large chunks, never
/// element-at-a-time.
IoResult WritePack(const std::string& path, const Graph& graph);

/// Loads a gpack. kMmap (default) maps the file and hands the Graph
/// borrowed, shared-ownership views of the sections — O(validation), no
/// copies; kCopy materialises owned vectors. Both modes fully validate
/// (header + section CRCs, CSR invariants) before constructing.
IoResult LoadPack(const std::string& path, Graph* graph,
                  LoadMode mode = LoadMode::kMmap);

/// Reads and validates only the header + section table (cheap; does not
/// touch the payloads).
IoResult ReadPackInfo(const std::string& path, GpackInfo* info);

/// Full integrity check: everything LoadPack validates, plus recomputes
/// the content fingerprint and compares it to the header.
IoResult VerifyPack(const std::string& path);

}  // namespace gorder::store

#endif  // GORDER_STORE_GPACK_H_
