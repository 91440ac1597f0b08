#ifndef GORDER_STORE_GPACK_H_
#define GORDER_STORE_GPACK_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/edgelist_io.h"  // IoResult
#include "graph/graph.h"
#include "util/file_ptr.h"

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
/// alone. GpackWriter lays out every pack with it, and EstimateMemory
/// (src/extmem) sizes one without writing it.
struct GpackLayout {
  std::uint64_t out_offsets = 0;    // file offset of each section payload
  std::uint64_t out_neighbors = 0;
  std::uint64_t in_offsets = 0;
  std::uint64_t in_neighbors = 0;
  std::uint64_t file_bytes = 0;     // total file size (ends at the last
                                    // payload byte)
};
GpackLayout ComputeGpackLayout(std::uint64_t num_nodes,
                               std::uint64_t num_edges);

/// The one .gpack writer. Streams a standard four-section pack front to
/// back: the caller appends the payload bytes in file order
/// (out_offsets, out_neighbors, in_offsets, in_neighbors) in chunks of
/// any size; the writer inserts the 64-byte alignment padding, keeps
/// each section's running CRC, and writes the header last. WritePack
/// (an in-memory Graph) and extmem::ExtPackBuilder (merge output) both
/// write through it, so their packs are byte-identical for equal CSR
/// content.
///
/// The bytes go to a writer-unique staging file (util::StagingPath)
/// that Finish fsyncs and renames onto the final path; any failure, or
/// destruction before Finish, removes it, so a reader never sees a
/// partial pack and no `.tmp.` debris survives.
class GpackWriter {
 public:
  GpackWriter() = default;
  ~GpackWriter();
  GpackWriter(const GpackWriter&) = delete;
  GpackWriter& operator=(const GpackWriter&) = delete;

  /// Opens the staging file for a pack of `num_nodes` nodes and
  /// `num_edges` edges and reserves its header and section table.
  IoResult Begin(const std::string& path, std::uint64_t num_nodes,
                 std::uint64_t num_edges);

  /// Appends the next `bytes` payload bytes in file order. Appending
  /// past the end of the last section is an error.
  IoResult Append(const void* data, std::size_t bytes);

  /// Checks that every section received exactly its bytes, writes the
  /// header (with `fingerprint`, the GraphFingerprint of the content),
  /// fsyncs and commits the pack to its final path.
  IoResult Finish(std::uint64_t fingerprint);

 private:
  IoResult Fail(const std::string& error);
  bool Write(const void* data, std::uint64_t bytes);
  bool PadTo(std::uint64_t offset);
  void SkipFullSections();

  std::string path_;
  std::string tmp_;
  util::FilePtr file_;  // open from Begin until Finish or Fail
  std::uint64_t num_nodes_ = 0;
  std::uint64_t num_edges_ = 0;
  std::array<std::uint64_t, 4> offset_{};  // payload offsets, file order
  std::array<std::uint64_t, 4> size_{};    // payload bytes
  std::array<std::uint32_t, 4> crc_{};
  std::size_t section_ = 0;       // section being filled (4: all full)
  std::uint64_t filled_ = 0;      // bytes of section_ written so far
  std::uint64_t pos_ = 0;         // bytes written to the file
};

/// Writes `graph` as a gpack at `path` through a GpackWriter (staged,
/// fsynced, renamed). The content fingerprint is computed concurrently
/// with the write.
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
