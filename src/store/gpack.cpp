#include "store/gpack.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <new>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/fingerprint.h"
#include "store/mapped_file.h"
#include "util/atomic_file.h"
#include "util/crc32.h"
#include "util/failpoint.h"
#include "util/file_ptr.h"
#include "util/parallel.h"

namespace gorder::store {

namespace {

GORDER_FAILPOINT_DEFINE(fp_pack_open, "store.pack_write.open");
GORDER_FAILPOINT_DEFINE(fp_pack_write, "store.pack_write.write");
GORDER_FAILPOINT_DEFINE(fp_pack_load_alloc, "store.pack_load.alloc");

// The on-disk layout is little-endian by definition; the structs below
// are written/read as raw bytes, which is only correct on LE hosts.
static_assert(std::endian::native == std::endian::little,
              "gpack I/O assumes a little-endian host");

GORDER_OBS_COUNTER(c_pack_write, "store.pack_write");
GORDER_OBS_COUNTER(c_pack_write_bytes, "store.pack_write_bytes");
GORDER_OBS_COUNTER(c_mmap_load, "store.mmap_load");
GORDER_OBS_COUNTER(c_mmap_load_bytes, "store.mmap_load_bytes");
GORDER_OBS_COUNTER(c_copy_load, "store.copy_load");

constexpr char kMagic[8] = {'G', 'P', 'A', 'C', 'K', 'B', 'I', 'N'};
constexpr std::uint64_t kFlagHasInCsr = 1;
constexpr std::uint32_t kSectionAlign = 64;
constexpr std::uint32_t kMaxSections = 64;

// Section ids, fixed for format version 1.
enum SectionId : std::uint32_t {
  kOutOffsets = 1,
  kOutNeighbors = 2,
  kInOffsets = 3,
  kInNeighbors = 4,
};

struct GpackHeader {
  char magic[8];
  std::uint32_t format_version;
  std::uint32_t header_bytes;
  std::uint64_t flags;
  std::uint64_t num_nodes;
  std::uint64_t num_edges;
  std::uint64_t fingerprint;
  std::uint32_t section_count;
  std::uint32_t header_crc;  // CRC32 of header (this field zeroed) + table
  std::uint8_t reserved[8];
};
static_assert(sizeof(GpackHeader) == 64);

struct GpackSectionEntry {
  std::uint32_t id;
  std::uint32_t item_bytes;
  std::uint64_t offset;
  std::uint64_t bytes;
  std::uint32_t crc32;
  std::uint32_t reserved;
};
static_assert(sizeof(GpackSectionEntry) == 32);

const char* SectionName(std::uint32_t id) {
  switch (id) {
    case kOutOffsets: return "out_offsets";
    case kOutNeighbors: return "out_neighbors";
    case kInOffsets: return "in_offsets";
    case kInNeighbors: return "in_neighbors";
    default: return "unknown";
  }
}

std::uint64_t AlignUp(std::uint64_t v, std::uint64_t a) {
  return (v + a - 1) / a * a;
}

/// CRC of the header (crc field zeroed) followed by the section table.
std::uint32_t HeaderCrc(GpackHeader header,
                        const std::vector<GpackSectionEntry>& table) {
  header.header_crc = 0;
  std::uint32_t crc = Crc32(&header, sizeof header);
  return table.empty()
             ? crc
             : Crc32(table.data(), table.size() * sizeof(GpackSectionEntry),
                     crc);
}

/// Validated view of a pack file: header, table and section extents all
/// checked against the mapped size. Populated by ParseAndCheck.
struct PackView {
  GpackHeader header;
  std::vector<GpackSectionEntry> table;
  // Section payloads by id (index 0 unused), bounds-checked.
  const std::byte* payload[5] = {};
};

/// Parses and validates everything except the payload CRCs (those are an
/// O(data) scan, done separately so ReadPackInfo stays cheap). Any
/// failure returns a clean diagnostic; no out-of-bounds reads happen on
/// the way (every access is preceded by a size check).
IoResult ParseAndCheck(const std::string& path, const MappedFile& file,
                       PackView* view) {
  const std::byte* base = file.data();
  const std::uint64_t size = file.size();
  if (size < sizeof(GpackHeader)) {
    return IoResult::Error(path + ": truncated gpack (no header)");
  }
  std::memcpy(&view->header, base, sizeof(GpackHeader));
  const GpackHeader& h = view->header;
  if (std::memcmp(h.magic, kMagic, sizeof kMagic) != 0) {
    return IoResult::Error(path + ": bad magic (not a gpack file)");
  }
  if (h.format_version != kGpackFormatVersion) {
    return IoResult::Error(
        path + ": gpack format version " + std::to_string(h.format_version) +
        " not supported (this build reads version " +
        std::to_string(kGpackFormatVersion) + ")");
  }
  if (h.header_bytes != sizeof(GpackHeader)) {
    return IoResult::Error(path + ": unexpected header size");
  }
  if (h.section_count == 0 || h.section_count > kMaxSections) {
    return IoResult::Error(path + ": implausible section count");
  }
  const std::uint64_t table_bytes =
      static_cast<std::uint64_t>(h.section_count) * sizeof(GpackSectionEntry);
  if (size < sizeof(GpackHeader) + table_bytes) {
    return IoResult::Error(path + ": truncated gpack (no section table)");
  }
  view->table.resize(h.section_count);
  std::memcpy(view->table.data(), base + sizeof(GpackHeader),
              static_cast<std::size_t>(table_bytes));
  if (HeaderCrc(h, view->table) != h.header_crc) {
    return IoResult::Error(path + ": header checksum mismatch (corrupt)");
  }
  if (h.num_nodes > 0xFFFFFFFFULL) {
    return IoResult::Error(path + ": node count exceeds 32-bit id space");
  }
  // Bound num_edges by the file size before it enters any size
  // arithmetic: an unchecked 2^62 would wrap `items * item_bytes` below,
  // let zero-length neighbor sections pass, and the CSR scan would then
  // read far past the mapping. (num_nodes is already capped above, so
  // (n + 1) * sizeof(EdgeId) cannot wrap.)
  if (h.num_edges > size / sizeof(NodeId)) {
    return IoResult::Error(path + ": edge count implausible for file size");
  }
  if ((h.flags & kFlagHasInCsr) == 0) {
    return IoResult::Error(path + ": pack lacks the in-CSR (flag unset)");
  }

  const std::uint64_t n = h.num_nodes;
  const std::uint64_t m = h.num_edges;
  struct Expected {
    std::uint32_t id;
    std::uint32_t item_bytes;
    std::uint64_t items;
  };
  const Expected expected[4] = {
      {kOutOffsets, sizeof(EdgeId), n + 1},
      {kOutNeighbors, sizeof(NodeId), m},
      {kInOffsets, sizeof(EdgeId), n + 1},
      {kInNeighbors, sizeof(NodeId), m},
  };
  for (const Expected& want : expected) {
    const GpackSectionEntry* entry = nullptr;
    for (const GpackSectionEntry& e : view->table) {
      if (e.id == want.id) {
        if (entry != nullptr) {
          return IoResult::Error(path + ": duplicate section " +
                                 SectionName(want.id));
        }
        entry = &e;
      }
    }
    if (entry == nullptr) {
      return IoResult::Error(path + ": missing section " +
                             SectionName(want.id));
    }
    if (entry->item_bytes != want.item_bytes ||
        entry->bytes != want.items * want.item_bytes) {
      return IoResult::Error(path + ": section " + SectionName(want.id) +
                             " has inconsistent size");
    }
    if (entry->offset % want.item_bytes != 0) {
      return IoResult::Error(path + ": section " + SectionName(want.id) +
                             " is misaligned");
    }
    if (entry->offset > size || entry->bytes > size - entry->offset) {
      return IoResult::Error(path + ": section " + SectionName(want.id) +
                             " extends past end of file (truncated?)");
    }
    view->payload[want.id] = base + entry->offset;
  }
  return IoResult::Ok();
}

/// Verifies the payload CRCs of the four CSR sections (parallel across
/// sections).
IoResult CheckSectionCrcs(const std::string& path, const MappedFile& file,
                          const PackView& view) {
  std::atomic<const char*> bad{nullptr};
  auto check = [&](std::uint32_t id) {
    for (const GpackSectionEntry& e : view.table) {
      if (e.id != id) continue;
      if (Crc32(file.data() + e.offset,
                static_cast<std::size_t>(e.bytes)) != e.crc32) {
        bad.store(SectionName(id), std::memory_order_relaxed);
      }
      return;
    }
  };
  ParallelInvoke([&] { check(kOutOffsets); }, [&] { check(kOutNeighbors); },
                 [&] { check(kInOffsets); }, [&] { check(kInNeighbors); });
  if (const char* name = bad.load()) {
    return IoResult::Error(path + ": section " + name +
                           " checksum mismatch (corrupt)");
  }
  return IoResult::Ok();
}

/// Deep CSR validation of one side: offsets start at 0, end at m, are
/// monotone; neighbour lists are sorted ascending with all ids < n.
/// Guarantees every later array access in the algorithms stays in
/// bounds.
bool ValidCsrSide(std::uint64_t n, std::uint64_t m, const EdgeId* offsets,
                  const NodeId* neigh) {
  if (offsets[0] != 0 || offsets[n] != m) return false;
  std::atomic<bool> ok{true};
  ParallelFor(0, static_cast<std::size_t>(n), 1 << 12,
              [&](std::size_t b, std::size_t e) {
                bool good = true;
                for (std::size_t v = b; v < e && good; ++v) {
                  const EdgeId lo = offsets[v], hi = offsets[v + 1];
                  if (lo > hi || hi > m) {
                    good = false;
                    break;
                  }
                  for (EdgeId i = lo; i < hi; ++i) {
                    if (neigh[i] >= n || (i > lo && neigh[i] < neigh[i - 1])) {
                      good = false;
                      break;
                    }
                  }
                }
                if (!good) ok.store(false, std::memory_order_relaxed);
              });
  return ok.load();
}

IoResult CheckCsrInvariants(const std::string& path, const PackView& view) {
  const std::uint64_t n = view.header.num_nodes;
  const std::uint64_t m = view.header.num_edges;
  const auto* out_off = reinterpret_cast<const EdgeId*>(view.payload[kOutOffsets]);
  const auto* out_nbr = reinterpret_cast<const NodeId*>(view.payload[kOutNeighbors]);
  const auto* in_off = reinterpret_cast<const EdgeId*>(view.payload[kInOffsets]);
  const auto* in_nbr = reinterpret_cast<const NodeId*>(view.payload[kInNeighbors]);
  if (!ValidCsrSide(n, m, out_off, out_nbr)) {
    return IoResult::Error(path + ": out-CSR violates format invariants");
  }
  if (!ValidCsrSide(n, m, in_off, in_nbr)) {
    return IoResult::Error(path + ": in-CSR violates format invariants");
  }
  return IoResult::Ok();
}

/// Section ids in file order. Offsets and neighbour sections alternate.
constexpr SectionId kFileOrder[4] = {kOutOffsets, kOutNeighbors, kInOffsets,
                                     kInNeighbors};

/// Serialises the 64-byte header plus the four-entry section table — the
/// first 192 bytes of a standard pack — from the section offsets, byte
/// lengths and CRC32s in file order. Only GpackWriter::Finish calls it.
std::string SerializeGpackHeader(std::uint64_t num_nodes,
                                 std::uint64_t num_edges,
                                 std::uint64_t fingerprint,
                                 const std::array<std::uint64_t, 4>& offsets,
                                 const std::array<std::uint64_t, 4>& sizes,
                                 const std::array<std::uint32_t, 4>& crcs) {
  GpackHeader header = {};
  std::memcpy(header.magic, kMagic, sizeof kMagic);
  header.format_version = kGpackFormatVersion;
  header.header_bytes = sizeof(GpackHeader);
  header.flags = kFlagHasInCsr;
  header.num_nodes = num_nodes;
  header.num_edges = num_edges;
  header.fingerprint = fingerprint;
  header.section_count = 4;

  std::vector<GpackSectionEntry> table(4);
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint32_t item_bytes =
        i % 2 == 0 ? sizeof(EdgeId) : sizeof(NodeId);
    table[i] = {kFileOrder[i], item_bytes, offsets[i], sizes[i], crcs[i], 0};
  }
  header.header_crc = HeaderCrc(header, table);

  std::string out(sizeof(GpackHeader) + 4 * sizeof(GpackSectionEntry), '\0');
  std::memcpy(out.data(), &header, sizeof header);
  std::memcpy(out.data() + sizeof header, table.data(),
              4 * sizeof(GpackSectionEntry));
  return out;
}

}  // namespace

GpackLayout ComputeGpackLayout(std::uint64_t num_nodes,
                               std::uint64_t num_edges) {
  const std::uint64_t off_bytes = (num_nodes + 1) * sizeof(EdgeId);
  const std::uint64_t nbr_bytes = num_edges * sizeof(NodeId);
  GpackLayout layout;
  std::uint64_t offset = AlignUp(
      sizeof(GpackHeader) + 4 * sizeof(GpackSectionEntry), kSectionAlign);
  layout.out_offsets = offset;
  offset = AlignUp(offset + off_bytes, kSectionAlign);
  layout.out_neighbors = offset;
  offset = AlignUp(offset + nbr_bytes, kSectionAlign);
  layout.in_offsets = offset;
  offset = AlignUp(offset + off_bytes, kSectionAlign);
  layout.in_neighbors = offset;
  // Like WritePack, the file ends at the last payload byte — padding is
  // only ever written ahead of a section.
  layout.file_bytes = offset + nbr_bytes;
  return layout;
}

GpackWriter::~GpackWriter() {
  if (tmp_.empty()) return;
  file_.reset();
  std::error_code ec;
  std::filesystem::remove(tmp_, ec);
}

IoResult GpackWriter::Fail(const std::string& error) {
  file_.reset();
  std::error_code ec;
  std::filesystem::remove(tmp_, ec);
  tmp_.clear();
  return IoResult::Error(error);
}

bool GpackWriter::Write(const void* data, std::uint64_t bytes) {
  constexpr std::uint64_t kChunk = 8ULL << 20;
  const char* p = static_cast<const char*>(data);
  while (bytes > 0) {
    const auto step = static_cast<std::size_t>(std::min(bytes, kChunk));
    if (GORDER_FAULT_IO(fp_pack_write, step,
                        std::fwrite(p, 1, step, file_.get())) != step) {
      return false;
    }
    p += step;
    bytes -= step;
    pos_ += step;
  }
  return true;
}

bool GpackWriter::PadTo(std::uint64_t offset) {
  // Covers the whole header reservation in one write, and any section
  // padding (at most kSectionAlign - 1 bytes).
  static constexpr char kZeros[256] = {};
  while (pos_ < offset) {
    const std::uint64_t step =
        std::min<std::uint64_t>(offset - pos_, sizeof kZeros);
    if (!Write(kZeros, step)) return false;
  }
  return true;
}

void GpackWriter::SkipFullSections() {
  while (section_ < 4 && filled_ == size_[section_]) {
    ++section_;
    filled_ = 0;
  }
}

IoResult GpackWriter::Begin(const std::string& path, std::uint64_t num_nodes,
                            std::uint64_t num_edges) {
  path_ = path;
  num_nodes_ = num_nodes;
  num_edges_ = num_edges;
  const GpackLayout layout = ComputeGpackLayout(num_nodes, num_edges);
  const std::uint64_t off_bytes = (num_nodes + 1) * sizeof(EdgeId);
  const std::uint64_t nbr_bytes = num_edges * sizeof(NodeId);
  offset_ = {layout.out_offsets, layout.out_neighbors, layout.in_offsets,
             layout.in_neighbors};
  size_ = {off_bytes, nbr_bytes, off_bytes, nbr_bytes};

  std::error_code ec;
  const std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::filesystem::create_directories(target.parent_path(), ec);
  }
  const std::string tmp = util::StagingPath(path);
  if (GORDER_FAILPOINT(fp_pack_open) != util::FaultKind::kNone) {
    return IoResult::Error("cannot open " + tmp + " for writing");
  }
  file_.reset(std::fopen(tmp.c_str(), "wb"));
  if (!file_) return IoResult::Error("cannot open " + tmp + " for writing");
  tmp_ = tmp;
  if (!PadTo(offset_[0])) return Fail("short write to " + tmp_);
  return IoResult::Ok();
}

IoResult GpackWriter::Append(const void* data, std::size_t bytes) {
  if (!file_) return IoResult::Error(path_ + ": pack writer is not open");
  const char* p = static_cast<const char*>(data);
  while (bytes > 0) {
    SkipFullSections();
    if (section_ == 4) {
      return Fail(path_ + ": append past the last pack section");
    }
    const auto take = static_cast<std::size_t>(
        std::min<std::uint64_t>(bytes, size_[section_] - filled_));
    if (!PadTo(offset_[section_]) || !Write(p, take)) {
      return Fail("short write to " + tmp_);
    }
    crc_[section_] = Crc32(p, take, crc_[section_]);
    filled_ += take;
    p += take;
    bytes -= take;
  }
  return IoResult::Ok();
}

IoResult GpackWriter::Finish(std::uint64_t fingerprint) {
  if (!file_) return IoResult::Error(path_ + ": pack writer is not open");
  SkipFullSections();
  if (section_ < 4) {
    return Fail(path_ + ": section " + SectionName(kFileOrder[section_]) +
                " got " + std::to_string(filled_) + " of " +
                std::to_string(size_[section_]) + " bytes");
  }
  const std::string header = SerializeGpackHeader(
      num_nodes_, num_edges_, fingerprint, offset_, size_, crc_);
  if (!PadTo(offset_[3] + size_[3]) ||
      std::fseek(file_.get(), 0, SEEK_SET) != 0 ||
      !Write(header.data(), header.size()) ||
      !util::FlushAndSync(file_.get()) || std::fclose(file_.release()) != 0) {
    return Fail("short write to " + tmp_);
  }
  const std::string tmp = std::move(tmp_);
  tmp_.clear();
  return util::CommitStagedFile(tmp, path_);
}

IoResult WritePack(const std::string& path, const Graph& graph) {
  GORDER_OBS_SPAN(span, "store.pack_write");
  const std::uint64_t n = graph.NumNodes();
  const std::uint64_t m = graph.NumEdges();
  GpackWriter writer;
  if (IoResult r = writer.Begin(path, n, m); !r.ok) return r;
  const std::uint64_t off_bytes = (n + 1) * sizeof(EdgeId);
  const std::uint64_t nbr_bytes = m * sizeof(NodeId);
  const struct {
    const void* data;
    std::uint64_t bytes;
  } payloads[4] = {
      {graph.out_offsets().data(), off_bytes},
      {graph.out_neighbors().data(), nbr_bytes},
      {graph.in_offsets().data(), off_bytes},
      {graph.in_neighbors().data(), nbr_bytes},
  };
  // The fingerprint is an independent scan of the same arrays; it runs
  // on the pool while the payloads stream out.
  std::uint64_t fingerprint = 0;
  IoResult written;
  ParallelInvoke([&] { fingerprint = GraphFingerprint(graph); },
                 [&] {
                   for (const auto& p : payloads) {
                     written = writer.Append(
                         p.data, static_cast<std::size_t>(p.bytes));
                     if (!written.ok) return;
                   }
                 });
  if (!written.ok) return written;
  if (IoResult r = writer.Finish(fingerprint); !r.ok) return r;
  GORDER_OBS_INC(c_pack_write);
  GORDER_OBS_ADD(c_pack_write_bytes, ComputeGpackLayout(n, m).file_bytes);
  return IoResult::Ok();
}

IoResult LoadPack(const std::string& path, Graph* graph, LoadMode mode) {
  GORDER_OBS_SPAN(span, "store.mmap_load");
  std::shared_ptr<MappedFile> file;
  IoResult r = MappedFile::Map(path, &file);
  if (!r.ok) return r;
  PackView view;
  if (r = ParseAndCheck(path, *file, &view); !r.ok) return r;
  if (r = CheckSectionCrcs(path, *file, view); !r.ok) return r;
  if (r = CheckCsrInvariants(path, view); !r.ok) return r;

  const auto n = static_cast<NodeId>(view.header.num_nodes);
  const auto n_off = static_cast<std::size_t>(view.header.num_nodes) + 1;
  const std::uint64_t m = view.header.num_edges;
  const auto* out_off = reinterpret_cast<const EdgeId*>(view.payload[kOutOffsets]);
  const auto* out_nbr = reinterpret_cast<const NodeId*>(view.payload[kOutNeighbors]);
  const auto* in_off = reinterpret_cast<const EdgeId*>(view.payload[kInOffsets]);
  const auto* in_nbr = reinterpret_cast<const NodeId*>(view.payload[kInNeighbors]);
  const auto count = static_cast<std::size_t>(m);

  if (mode == LoadMode::kMmap) {
    *graph = Graph::FromMapped(
        n, ArrayRef<EdgeId>(out_off, n_off, file),
        ArrayRef<NodeId>(out_nbr, count, file),
        ArrayRef<EdgeId>(in_off, n_off, file),
        ArrayRef<NodeId>(in_nbr, count, file));
    GORDER_OBS_INC(c_mmap_load);
    GORDER_OBS_ADD(c_mmap_load_bytes, file->size());
  } else {
    try {
      GORDER_FAULT_ALLOC(fp_pack_load_alloc);
      *graph = Graph::FromMapped(
          n, ArrayRef<EdgeId>(std::vector<EdgeId>(out_off, out_off + n_off)),
          ArrayRef<NodeId>(std::vector<NodeId>(out_nbr, out_nbr + count)),
          ArrayRef<EdgeId>(std::vector<EdgeId>(in_off, in_off + n_off)),
          ArrayRef<NodeId>(std::vector<NodeId>(in_nbr, in_nbr + count)));
    } catch (const std::bad_alloc&) {
      return IoResult::Error(path + ": cannot allocate CSR copy buffers");
    }
    GORDER_OBS_INC(c_copy_load);
  }
  return IoResult::Ok();
}

IoResult ReadPackInfo(const std::string& path, GpackInfo* info) {
  std::shared_ptr<MappedFile> file;
  IoResult r = MappedFile::Map(path, &file);
  if (!r.ok) return r;
  PackView view;
  if (r = ParseAndCheck(path, *file, &view); !r.ok) return r;
  info->format_version = view.header.format_version;
  info->flags = view.header.flags;
  info->num_nodes = view.header.num_nodes;
  info->num_edges = view.header.num_edges;
  info->fingerprint = view.header.fingerprint;
  info->file_bytes = file->size();
  info->sections.clear();
  for (const GpackSectionEntry& e : view.table) {
    info->sections.push_back({SectionName(e.id), e.id, e.item_bytes, e.offset,
                              e.bytes, e.crc32});
  }
  return IoResult::Ok();
}

IoResult VerifyPack(const std::string& path) {
  // Header first: its mapping is gone before LoadPack maps the pack, so
  // the file is never mapped twice at once (address space under a
  // `ulimit -v` cap).
  GpackInfo info;
  IoResult r = ReadPackInfo(path, &info);
  if (!r.ok) return r;
  Graph g;
  if (r = LoadPack(path, &g, LoadMode::kMmap); !r.ok) return r;
  if (GraphFingerprint(g) != info.fingerprint) {
    return IoResult::Error(path +
                           ": content fingerprint mismatch (header does not "
                           "match payload)");
  }
  return IoResult::Ok();
}

}  // namespace gorder::store
