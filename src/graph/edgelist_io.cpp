#include "graph/edgelist_io.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <new>
#include <vector>

#include "obs/trace.h"
#include "util/atomic_file.h"
#include "util/failpoint.h"
#include "util/file_ptr.h"
#include "util/parallel.h"

namespace gorder {

namespace {

GORDER_FAILPOINT_DEFINE(fp_read_open, "graph.read_edgelist.open");
GORDER_FAILPOINT_DEFINE(fp_read_read, "graph.read_edgelist.read");
GORDER_FAILPOINT_DEFINE(fp_read_alloc, "graph.read_edgelist.alloc");
GORDER_FAILPOINT_DEFINE(fp_write_open, "graph.write_edgelist.open");
GORDER_FAILPOINT_DEFINE(fp_write_write, "graph.write_edgelist.write");
GORDER_FAILPOINT_DEFINE(fp_wbin_open, "graph.write_binary.open");
GORDER_FAILPOINT_DEFINE(fp_wbin_write, "graph.write_binary.write");
GORDER_FAILPOINT_DEFINE(fp_rbin_open, "graph.read_binary.open");
GORDER_FAILPOINT_DEFINE(fp_rbin_stat, "graph.read_binary.stat");
GORDER_FAILPOINT_DEFINE(fp_rbin_read, "graph.read_binary.read");
GORDER_FAILPOINT_DEFINE(fp_rbin_alloc, "graph.read_binary.alloc");

constexpr char kBinaryMagic[8] = {'G', 'O', 'R', 'D', 'E', 'R', '0', '1'};

constexpr std::size_t kReadBuffer = 1u << 20;
constexpr std::size_t kMaxLine = 64u << 20;  // pathological-line ceiling

/// Parse result of one line-aligned chunk of a read buffer.
struct ChunkParse {
  std::vector<Edge> edges;
  NodeId max_node = 0;    // largest id in `edges`
  std::size_t lines = 0;  // '\n' consumed before the end or the bad line
  const char* error_kind = nullptr;
};

/// The edge-list tokenizer (grammar in edgelist_io.h). Parses the lines
/// in `data[begin, end)`: `begin` is at a line start and `end` just past
/// a '\n' or at the end of the file.
void ParseChunk(const char* data, std::size_t begin, std::size_t end,
                ChunkParse* out) {
  out->edges.clear();
  out->max_node = 0;
  out->lines = 0;
  out->error_kind = nullptr;
  std::size_t p = begin;
  while (p < end) {
    while (p < end && (data[p] == ' ' || data[p] == '\t')) ++p;
    if (p == end || data[p] == '#' || data[p] == '%' || data[p] == '\n' ||
        data[p] == '\r' || data[p] == '\0') {
      while (p < end && data[p] != '\n') ++p;
      if (p < end) {
        ++p;
        ++out->lines;
      }
      continue;
    }
    std::uint64_t ids[2];
    for (int k = 0; k < 2; ++k) {
      while (p < end && (data[p] == ' ' || data[p] == '\t')) ++p;
      if (p >= end || data[p] < '0' || data[p] > '9') {
        out->error_kind = "malformed edge line";
        return;
      }
      std::uint64_t value = 0;
      while (p < end && data[p] >= '0' && data[p] <= '9') {
        value = value * 10 + static_cast<std::uint64_t>(data[p] - '0');
        if (value > 0xFFFFFFFFFULL) value = 0xFFFFFFFFFULL;  // clamp, reject
        ++p;
      }
      ids[k] = value;
    }
    if (ids[0] > 0xFFFFFFFEULL || ids[1] > 0xFFFFFFFEULL) {
      out->error_kind = "node id out of 32-bit range";
      return;
    }
    const NodeId src = static_cast<NodeId>(ids[0]);
    const NodeId dst = static_cast<NodeId>(ids[1]);
    out->edges.push_back({src, dst});
    out->max_node = std::max({out->max_node, src, dst});
    while (p < end && data[p] != '\n') ++p;  // ignore the rest of the line
    if (p < end) {
      ++p;
      ++out->lines;
    }
  }
}

/// Splits `data[0, size)` into line-aligned chunks for the pool: chunk i
/// is [bounds[i], bounds[i+1]).
void SplitAtLines(const char* data, std::size_t size,
                  std::vector<std::size_t>* bounds) {
  const int threads = NumThreads();
  const std::size_t want_chunks =
      threads == 1 ? 1
                   : std::min<std::size_t>(static_cast<std::size_t>(threads) * 4,
                                           std::max<std::size_t>(
                                               size / (1 << 16), 1));
  bounds->assign(1, 0);
  const std::size_t stride = size / want_chunks + 1;
  for (std::size_t c = 1; c < want_chunks; ++c) {
    std::size_t pos = std::max(std::min(c * stride, size), bounds->back());
    while (pos < size && data[pos] != '\n') ++pos;
    if (pos < size) ++pos;  // start just past the newline
    if (pos > bounds->back()) bounds->push_back(pos);
  }
  bounds->push_back(size);
}

}  // namespace

IoResult StreamEdgeList(const std::string& path, const EdgeSink& sink,
                        NodeId* max_node, bool* saw_node) {
  if (GORDER_FAILPOINT(fp_read_open) != util::FaultKind::kNone) {
    return IoResult::Error("cannot open " + path);
  }
  util::FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return IoResult::Error("cannot open " + path);
  std::vector<char> buf;
  auto grow = [&](std::size_t bytes) {
    try {
      GORDER_FAULT_ALLOC(fp_read_alloc);
      buf.resize(bytes);
    } catch (const std::bad_alloc&) {
      return false;
    }
    return true;
  };
  if (!grow(kReadBuffer)) {
    return IoResult::Error("cannot allocate read buffer for " + path);
  }
  std::vector<std::size_t> bounds;
  std::vector<ChunkParse> parts;
  NodeId local_max = 0;
  bool local_saw = false;
  std::size_t carry = 0;  // bytes of an incomplete line held over
  std::size_t line = 1;   // line number of buf[0]
  while (true) {
    const std::size_t want = buf.size() - carry;
    // A short count is legitimate at EOF, so a real error shows only in
    // ferror — and an injected one as a mismatch with the real count.
    const std::size_t real = std::fread(buf.data() + carry, 1, want, f.get());
    const std::size_t got = GORDER_FAULT_IO(fp_read_read, want, real);
    if (got != real || std::ferror(f.get())) {
      return IoResult::Error("short read from " + path);
    }
    const std::size_t filled = carry + got;
    const bool eof = got < want;
    // Parse up to the last complete line, or everything at EOF.
    std::size_t region = filled;
    if (!eof) {
      while (region > 0 && buf[region - 1] != '\n') --region;
      if (region == 0) {
        // No newline in the whole buffer: grow it (rare) up to the
        // ceiling rather than split a token.
        if (buf.size() >= kMaxLine) {
          return IoResult::Error(path + ":" + std::to_string(line) +
                                 ": line exceeds " + std::to_string(kMaxLine) +
                                 " bytes");
        }
        if (!grow(buf.size() * 2)) {
          return IoResult::Error("cannot allocate read buffer for " + path);
        }
        carry = filled;
        continue;
      }
    }
    SplitAtLines(buf.data(), region, &bounds);
    const std::size_t num_chunks = bounds.size() - 1;
    if (parts.size() < num_chunks) parts.resize(num_chunks);
    ParallelFor(0, num_chunks, 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t c = b; c < e; ++c) {
        ParseChunk(buf.data(), bounds[c], bounds[c + 1], &parts[c]);
      }
    });
    for (std::size_t c = 0; c < num_chunks; ++c) {
      const ChunkParse& part = parts[c];
      if (part.error_kind != nullptr) {
        return IoResult::Error(path + ":" + std::to_string(line + part.lines) +
                               ": " + part.error_kind);
      }
      line += part.lines;
      if (part.edges.empty()) continue;
      if (IoResult r = sink(part.edges.data(), part.edges.size()); !r.ok) {
        return r;
      }
      local_max = std::max(local_max, part.max_node);
      local_saw = true;
    }
    carry = filled - region;
    if (carry > 0) std::memmove(buf.data(), buf.data() + region, carry);
    if (eof) break;
  }
  if (max_node != nullptr) *max_node = local_max;
  if (saw_node != nullptr) *saw_node = local_saw;
  return IoResult::Ok();
}

IoResult ReadEdgeList(const std::string& path, Graph* graph) {
  GORDER_OBS_SPAN(span, "io.read_edgelist");
  // Size the edge array once: most edge lines take 8 bytes or more, and
  // capacity that is never written costs no physical memory. Only a
  // hint; the array still grows if the guess falls short.
  std::vector<Edge> edges;
  std::error_code ec;
  const std::uintmax_t file_bytes = std::filesystem::file_size(path, ec);
  try {
    if (!ec) edges.reserve(file_bytes / sizeof(Edge));
  } catch (const std::bad_alloc&) {
  }
  NodeId max_node = 0;
  bool saw_node = false;
  IoResult r = StreamEdgeList(
      path,
      [&](const Edge* batch, std::size_t count) {
        edges.insert(edges.end(), batch, batch + count);
        return IoResult::Ok();
      },
      &max_node, &saw_node);
  if (!r.ok) return r;
  *graph = Graph::FromEdges(saw_node ? max_node + 1 : 0, std::move(edges));
  return IoResult::Ok();
}

namespace {

/// Appends the decimal form of `v` to `buf` at `pos`.
inline std::size_t AppendU32(char* buf, std::size_t pos, std::uint32_t v) {
  char digits[10];
  int len = 0;
  do {
    digits[len++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (len > 0) buf[pos++] = digits[--len];
  return pos;
}

}  // namespace

IoResult WriteEdgeList(const std::string& path, const Graph& graph) {
  GORDER_OBS_SPAN(span, "io.write_edgelist");
  // Stage + rename like every other artifact writer: a failed or
  // crashed write never leaves a truncated edge list at the final path.
  const std::string tmp = util::StagingPath(path);
  if (GORDER_FAILPOINT(fp_write_open) != util::FaultKind::kNone) {
    return IoResult::Error("cannot open " + tmp + " for writing");
  }
  util::FilePtr f(std::fopen(tmp.c_str(), "w"));
  if (!f) return IoResult::Error("cannot open " + tmp + " for writing");
  auto fail = [&] {
    f.reset();
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return IoResult::Error("short write to " + tmp);
  };
  if (std::fprintf(f.get(), "# Directed graph: %u nodes, %" PRIu64 " edges\n",
                   graph.NumNodes(), graph.NumEdges()) < 0) {
    return fail();
  }
  // Buffered formatting: one fwrite per ~1MB instead of one fprintf per
  // edge ("src dst\n" needs at most 22 bytes).
  std::vector<char> buf(1 << 20);
  std::size_t pos = 0;
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    for (NodeId w : graph.OutNeighbors(v)) {
      if (pos + 24 > buf.size()) {
        if (GORDER_FAULT_IO(fp_write_write, pos,
                            std::fwrite(buf.data(), 1, pos, f.get())) != pos) {
          return fail();
        }
        pos = 0;
      }
      pos = AppendU32(buf.data(), pos, v);
      buf[pos++] = ' ';
      pos = AppendU32(buf.data(), pos, w);
      buf[pos++] = '\n';
    }
  }
  if (pos > 0 &&
      GORDER_FAULT_IO(fp_write_write, pos,
                      std::fwrite(buf.data(), 1, pos, f.get())) != pos) {
    return fail();
  }
  if (!util::FlushAndSync(f.get())) return fail();
  f.reset();
  return util::CommitStagedFile(tmp, path);
}

IoResult WriteBinary(const std::string& path, const Graph& graph) {
  const std::string tmp = util::StagingPath(path);
  if (GORDER_FAILPOINT(fp_wbin_open) != util::FaultKind::kNone) {
    return IoResult::Error("cannot open " + tmp + " for writing");
  }
  util::FilePtr f(std::fopen(tmp.c_str(), "wb"));
  if (!f) return IoResult::Error("cannot open " + tmp + " for writing");
  std::uint64_t n = graph.NumNodes();
  std::uint64_t m = graph.NumEdges();
  auto write_raw = [&](const void* data, std::size_t item_bytes,
                       std::size_t items) {
    return GORDER_FAULT_IO(fp_wbin_write, items,
                           std::fwrite(data, item_bytes, items, f.get())) ==
           items;
  };
  bool ok = write_raw(kBinaryMagic, 1, 8) && write_raw(&n, sizeof n, 1) &&
            write_raw(&m, sizeof m, 1);
  auto write_vec = [&](const auto& v) {
    return v.empty() || write_raw(v.data(), sizeof(v[0]), v.size());
  };
  ok = ok && write_vec(graph.out_offsets()) && write_vec(graph.out_neighbors());
  ok = ok && util::FlushAndSync(f.get());
  if (!ok) {
    f.reset();
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return IoResult::Error("short write to " + tmp);
  }
  f.reset();
  return util::CommitStagedFile(tmp, path);
}

IoResult ReadBinary(const std::string& path, Graph* graph) {
  if (GORDER_FAILPOINT(fp_rbin_open) != util::FaultKind::kNone) {
    return IoResult::Error("cannot open " + path);
  }
  util::FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return IoResult::Error("cannot open " + path);
  // File size first: the n/m header fields are untrusted and must be
  // bounded against it before they size any allocation.
  if (GORDER_FAILPOINT(fp_rbin_stat) != util::FaultKind::kNone ||
      std::fseek(f.get(), 0, SEEK_END) != 0) {
    return IoResult::Error("cannot seek " + path);
  }
  const long ssize = std::ftell(f.get());
  if (ssize < 0) return IoResult::Error("cannot stat " + path);
  std::rewind(f.get());
  const auto file_bytes = static_cast<std::uint64_t>(ssize);
  char magic[8];
  std::uint64_t n = 0, m = 0;
  auto read_raw = [&](void* data, std::size_t item_bytes, std::size_t items) {
    return GORDER_FAULT_IO(fp_rbin_read, items,
                           std::fread(data, item_bytes, items, f.get())) ==
           items;
  };
  if (!read_raw(magic, 1, 8) || std::memcmp(magic, kBinaryMagic, 8) != 0) {
    return IoResult::Error(path + ": bad magic (not a gorder binary graph)");
  }
  if (!read_raw(&n, sizeof n, 1) || !read_raw(&m, sizeof m, 1)) {
    return IoResult::Error(path + ": truncated header");
  }
  if (n > 0xFFFFFFFFULL) return IoResult::Error(path + ": node count too big");
  // Bound both counts by what the file could possibly hold before
  // allocating: a crafted header with m near 2^62 would otherwise ask
  // std::vector for a multi-exabyte buffer (bad_alloc at best, OOM kill
  // at worst) before any other check runs. n is capped above, so
  // (n + 1) * sizeof(EdgeId) cannot wrap; m is divided, not multiplied,
  // so the comparison cannot wrap either.
  constexpr std::uint64_t kHeaderBytes = 8 + sizeof n + sizeof m;
  const std::uint64_t payload_bytes =
      file_bytes > kHeaderBytes ? file_bytes - kHeaderBytes : 0;
  const std::uint64_t offsets_bytes = (n + 1) * sizeof(EdgeId);
  if (offsets_bytes > payload_bytes) {
    return IoResult::Error(path + ": node count implausible for file size");
  }
  if (m > (payload_bytes - offsets_bytes) / sizeof(NodeId)) {
    return IoResult::Error(path + ": edge count implausible for file size");
  }
  std::vector<EdgeId> offsets;
  std::vector<NodeId> neigh;
  try {
    GORDER_FAULT_ALLOC(fp_rbin_alloc);
    offsets.resize(n + 1);
    neigh.resize(m);
  } catch (const std::bad_alloc&) {
    return IoResult::Error(path + ": cannot allocate CSR buffers");
  }
  if (!read_raw(offsets.data(), sizeof(EdgeId), offsets.size())) {
    return IoResult::Error(path + ": truncated offsets");
  }
  if (m > 0 && !read_raw(neigh.data(), sizeof(NodeId), neigh.size())) {
    return IoResult::Error(path + ": truncated neighbours");
  }
  if (offsets[0] != 0 || offsets[n] != m) {
    return IoResult::Error(path + ": inconsistent CSR offsets");
  }
  std::vector<Edge> edges;
  edges.reserve(m);
  for (std::uint64_t v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1]) {
      return IoResult::Error(path + ": non-monotone CSR offsets");
    }
    for (EdgeId e = offsets[v]; e < offsets[v + 1]; ++e) {
      if (neigh[e] >= n) return IoResult::Error(path + ": neighbour id >= n");
      edges.push_back({static_cast<NodeId>(v), neigh[e]});
    }
  }
  *graph = Graph::FromEdges(static_cast<NodeId>(n), std::move(edges),
                            /*keep_self_loops=*/true,
                            /*keep_duplicates=*/true);
  return IoResult::Ok();
}

}  // namespace gorder
