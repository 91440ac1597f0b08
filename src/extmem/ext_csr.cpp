#include "extmem/ext_csr.h"

#include <algorithm>
#include <filesystem>
#include <new>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/fingerprint.h"
#include "store/gpack.h"
#include "util/failpoint.h"

namespace gorder::extmem {

namespace {

GORDER_FAILPOINT_DEFINE(fp_csr_alloc, "extmem.csr.alloc");

GORDER_OBS_COUNTER(c_ext_builds, "extmem.pack_builds");
GORDER_OBS_COUNTER(c_ext_edges, "extmem.edges_ingested");

/// Streams one neighbor section: appends the `dst` of every edge `merge`
/// yields to `writer` and, when `fingerprint` is set, mixes it in.
IoResult StreamNeighborSection(MergeStream* merge, store::GpackWriter* writer,
                               store::Hash64* fingerprint,
                               std::uint64_t* count) {
  std::vector<NodeId> buf;
  buf.reserve(1u << 16);
  std::uint64_t written = 0;
  auto flush = [&]() -> IoResult {
    if (buf.empty()) return IoResult::Ok();
    IoResult r = writer->Append(buf.data(), buf.size() * sizeof(NodeId));
    if (!r.ok) return r;
    if (fingerprint != nullptr) {
      for (NodeId v : buf) fingerprint->Mix(v);
    }
    written += buf.size();
    buf.clear();
    return IoResult::Ok();
  };
  while (true) {
    Edge e;
    bool eof = false;
    if (IoResult r = merge->Next(&e, &eof); !r.ok) return r;
    if (eof) break;
    if (e.src == e.dst) continue;  // self-loops dropped, as in Builder
    buf.push_back(e.dst);
    if (buf.size() == buf.capacity()) {
      if (IoResult r = flush(); !r.ok) return r;
    }
  }
  if (IoResult r = flush(); !r.ok) return r;
  *count = written;
  return IoResult::Ok();
}

}  // namespace

ExtPackBuilder::ExtPackBuilder(const ExtmemOptions& options)
    : options_(options), forward_(options) {}

IoResult ExtPackBuilder::Begin(const std::string& pack_path) {
  pack_path_ = pack_path;
  scratch_prefix_ =
      options_.scratch_dir.empty()
          ? pack_path
          : options_.scratch_dir + "/" +
                std::filesystem::path(pack_path).filename().string();
  std::error_code ec;
  const std::filesystem::path target(pack_path);
  if (target.has_parent_path()) {
    std::filesystem::create_directories(target.parent_path(), ec);
  }
  if (!options_.scratch_dir.empty()) {
    std::filesystem::create_directories(options_.scratch_dir, ec);
  }
  if (IoResult r = forward_.Create(scratch_prefix_ + ".fwd"); !r.ok) return r;
  begun_ = true;
  return IoResult::Ok();
}

void ExtPackBuilder::ReserveNodes(NodeId n) {
  reserved_nodes_ = std::max(reserved_nodes_, n);
}

IoResult ExtPackBuilder::Add(NodeId src, NodeId dst) {
  const Edge e{src, dst};
  return AddBatch(&e, 1);
}

IoResult ExtPackBuilder::AddBatch(const Edge* edges, std::size_t count) {
  if (count == 0) return IoResult::Ok();
  // Track n over *all* ingested edges — Graph::Builder grows the node
  // count before it strips self-loops, and bit-identity depends on it.
  NodeId hi = max_node_;
  // Self-loops are dropped, like Builder::Build(): the runs between them
  // go to the sorter in bulk.
  std::size_t begin = 0;
  for (std::size_t i = 0; i < count; ++i) {
    hi = std::max({hi, edges[i].src, edges[i].dst});
    if (edges[i].src != edges[i].dst) continue;
    if (IoResult r = forward_.AddBatch(edges + begin, i - begin); !r.ok) {
      return r;
    }
    begin = i + 1;
  }
  max_node_ = hi;
  saw_node_ = true;
  stats_.edges_ingested += count;
  return forward_.AddBatch(edges + begin, count - begin);
}

IoResult ExtPackBuilder::Finish() {
  IoResult r = FinishImpl();
  forward_.ReleaseScratch();
#if defined(__GLIBC__)
  // The build's buffers are all freed by now, but glibc keeps freed heap
  // pages resident until trimmed; give them back before the caller maps
  // or loads the pack.
  malloc_trim(0);
#endif
  return r;
}

IoResult ExtPackBuilder::FinishImpl() {
  GORDER_OBS_SPAN(span, "extmem.pack_build");
  if (!begun_) return IoResult::Error("ExtPackBuilder::Begin was not called");
  const std::uint64_t n =
      std::max<std::uint64_t>(saw_node_ ? std::uint64_t{max_node_} + 1 : 0,
                              reserved_nodes_);

  // Each phase has a child span, so a run report can say where the build
  // time went.
  {
    GORDER_OBS_SPAN(phase, "extmem.runs_finish");
    if (IoResult r = forward_.Finish(&stats_); !r.ok) return r;
  }

  // --- Pass A: count degrees, spill the transposed stream. -------------
  std::vector<EdgeId> out_off, in_off;
  ExternalEdgeSorter transposed(options_);
  std::uint64_t m = 0;
  store::Hash64 fingerprint;
  {
    GORDER_OBS_SPAN(phase, "extmem.count_transpose");
    try {
      GORDER_FAULT_ALLOC(fp_csr_alloc);
      out_off.assign(static_cast<std::size_t>(n) + 1, 0);
      in_off.assign(static_cast<std::size_t>(n) + 1, 0);
    } catch (const std::bad_alloc&) {
      return IoResult::Error("cannot allocate offset arrays for " +
                             std::to_string(n) + " nodes");
    }
    if (IoResult r = transposed.Create(scratch_prefix_ + ".rev"); !r.ok) {
      return r;
    }
    MergeStream merge;
    if (IoResult r = forward_.OpenMerge(&merge); !r.ok) return r;
    while (true) {
      Edge e;
      bool eof = false;
      if (IoResult r = merge.Next(&e, &eof); !r.ok) return r;
      if (eof) break;
      ++m;
      ++out_off[static_cast<std::size_t>(e.src) + 1];
      ++in_off[static_cast<std::size_t>(e.dst) + 1];
      const Edge flipped{e.dst, e.src};
      if (IoResult r = transposed.AddBatch(&flipped, 1); !r.ok) return r;
    }
    merge.Close();
    if (IoResult r = transposed.Finish(&stats_); !r.ok) return r;
    stats_.edges_final = m;

    // Prefix sums turn the degrees into offsets.
    for (std::size_t v = 0; v < n; ++v) out_off[v + 1] += out_off[v];
    for (std::size_t v = 0; v < n; ++v) in_off[v + 1] += in_off[v];
    fingerprint.Mix(n);
    fingerprint.Mix(m);
    for (EdgeId off : out_off) fingerprint.Mix(off);
  }

  // --- Pass B: stream the four sections into the pack. ------------------
  // They go out strictly in file order: both offset arrays are already
  // in RAM, the neighbour lists come off the merges.
  store::GpackWriter writer;
  const std::size_t off_bytes =
      (static_cast<std::size_t>(n) + 1) * sizeof(EdgeId);
  std::uint64_t out_count = 0, in_count = 0;
  {
    GORDER_OBS_SPAN(phase, "extmem.out_neighbors");
    if (IoResult r = writer.Begin(pack_path_, n, m); !r.ok) return r;
    if (IoResult r = writer.Append(out_off.data(), off_bytes); !r.ok) {
      return r;
    }
    MergeStream merge;
    if (IoResult r = forward_.OpenMerge(&merge); !r.ok) return r;
    if (IoResult r =
            StreamNeighborSection(&merge, &writer, &fingerprint, &out_count);
        !r.ok) {
      return r;
    }
  }
  {
    GORDER_OBS_SPAN(phase, "extmem.in_neighbors");
    if (IoResult r = writer.Append(in_off.data(), off_bytes); !r.ok) return r;
    MergeStream merge;
    if (IoResult r = transposed.OpenMerge(&merge); !r.ok) return r;
    // Transposed edges are (dst, src): sorted by dst then src, so the
    // second component streams exactly the in-neighbor lists.
    if (IoResult r = StreamNeighborSection(&merge, &writer, nullptr, &in_count);
        !r.ok) {
      return r;
    }
  }
  GORDER_OBS_SPAN(phase, "extmem.commit");
  transposed.ReleaseScratch();
  if (out_count != m || in_count != m) {
    return IoResult::Error("merge replay disagreed on edge count (" +
                           std::to_string(out_count) + "/" +
                           std::to_string(in_count) + " vs " +
                           std::to_string(m) + ")");
  }
  if (IoResult r = writer.Finish(fingerprint.Digest()); !r.ok) return r;
  GORDER_OBS_INC(c_ext_builds);
  GORDER_OBS_ADD(c_ext_edges, stats_.edges_ingested);
  return IoResult::Ok();
}

IoResult StreamEdgeListToPack(const std::string& edge_path,
                              const std::string& pack_path,
                              const ExtmemOptions& options,
                              ExtBuildStats* stats) {
  ExtPackBuilder builder(options);
  if (IoResult r = builder.Begin(pack_path); !r.ok) return r;
  IoResult r = StreamEdgeList(
      edge_path, [&](const Edge* edges, std::size_t count) {
        return builder.AddBatch(edges, count);
      });
  if (!r.ok) return r;
  if (r = builder.Finish(); !r.ok) return r;
  if (stats != nullptr) *stats = builder.stats();
  return IoResult::Ok();
}

IoResult BuildPackFromEdgeStream(const EdgeStreamFn& stream,
                                 NodeId reserve_nodes,
                                 const std::string& pack_path,
                                 const ExtmemOptions& options,
                                 ExtBuildStats* stats) {
  ExtPackBuilder builder(options);
  if (IoResult r = builder.Begin(pack_path); !r.ok) return r;
  if (reserve_nodes > 0) builder.ReserveNodes(reserve_nodes);
  IoResult r = stream([&](const Edge* edges, std::size_t count) {
    return builder.AddBatch(edges, count);
  });
  if (!r.ok) return r;
  if (r = builder.Finish(); !r.ok) return r;
  if (stats != nullptr) *stats = builder.stats();
  return IoResult::Ok();
}

MemoryEstimates EstimateMemory(std::uint64_t num_nodes,
                               std::uint64_t num_edges,
                               const ExtmemOptions& options) {
  const std::uint64_t n = num_nodes, m = num_edges;
  MemoryEstimates est;
  est.pack_file_bytes = store::ComputeGpackLayout(n, m).file_bytes;
  est.copy_load_bytes = 2 * (n + 1) * sizeof(EdgeId) + 2 * m * sizeof(NodeId);
  // FromEdges holds the edge list plus both CSRs plus counting arrays at
  // its peak.
  est.inmem_build_peak_bytes =
      m * sizeof(Edge) + est.copy_load_bytes + 2 * (n + 1) * sizeof(EdgeId);
  // Extmem build: two offset arrays plus the streaming budget.
  est.extmem_build_bytes =
      2 * (n + 1) * sizeof(EdgeId) + options.mem_budget_bytes;
  // Semi-external Gorder: packed unit heap (16 B/slot), permutation,
  // window bookkeeping — the adjacency itself stays on disk.
  est.gorder_state_bytes = n * 16 + 2 * n * sizeof(NodeId);
  return est;
}

}  // namespace gorder::extmem
