#ifndef GORDER_GEN_CHUNKED_H_
#define GORDER_GEN_CHUNKED_H_

/// Communication-free chunked graph generation (DESIGN.md §19).
///
/// Every streaming generator here splits its edge space into fixed-size
/// chunks and derives chunk c's PRNG state purely from
/// (params, seed, c) — the KaGen recipe ("Communication-free Massively
/// Distributed Graph Generation", Funke et al.) — so chunks can be
/// produced in any order, on any number of threads, with bit-identical
/// output. The driver generates a bounded window of chunks on the
/// shared pool (util/parallel.h) and hands them to the sink in
/// ascending chunk order, which makes the delivered *stream* (not just
/// the final graph) deterministic in (params, seed, chunk_edges) and
/// keeps RAM at O(window * chunk_edges) however many edges are
/// requested.
///
/// The sink is invoked from the calling thread only, one chunk at a
/// time, so ordinary single-threaded sinks (Graph::Builder,
/// extmem::ExtPackBuilder) need no locking.

#include <cstdint>
#include <initializer_list>

#include "graph/edgelist_io.h"  // EdgeSink, EdgeStreamFn
#include "graph/graph.h"
#include "util/io_result.h"
#include "util/rng.h"

namespace gorder::gen {

/// R-MAT / Kronecker parameters (Chakrabarti et al., SDM 2004):
/// `num_edges` samples by recursive quadrant descent over a
/// 2^scale x 2^scale adjacency matrix with probabilities (a, b, c, d)
/// and multiplicative noise.
struct RmatParams {
  int scale = 16;          // n = 2^scale
  EdgeId num_edges = 1 << 20;
  double a = 0.57, b = 0.19, c = 0.19;  // d = 1 - a - b - c
};

/// Knobs for the chunked drivers. Defaults suit the out-of-core
/// pipeline: 2 MiB of edges per chunk, window sized from the thread
/// budget.
struct ChunkedOptions {
  /// Edge attempts per chunk. Part of the determinism key: the same
  /// (params, seed) at a different chunk_edges is a different stream.
  std::size_t chunk_edges = 1u << 18;
  /// Chunks generated concurrently per window. 0 derives
  /// max(4, 2 * threads). Affects only scheduling and peak RAM, never
  /// output.
  std::size_t window_chunks = 0;
  /// Runs the retained straight-line serial loop instead of the
  /// windowed parallel driver. Same output by contract; the
  /// differential tests pin the parallel driver against this path.
  bool serial_reference = false;
};

/// Chunk c's PRNG seed, derived only from (seed, c): the StreamRmat
/// pattern, shared by every chunked generator. Fold generator
/// parameters into `seed` first (MixParamsSeed) so distinct parameter
/// sets give independent streams.
std::uint64_t ChunkSeed(std::uint64_t seed, std::uint64_t chunk_index);

/// Folds a generator tag and parameter words into a stream seed
/// (FNV-1a over the words, then SplitMix64-finalised).
std::uint64_t MixParamsSeed(const char* tag, std::uint64_t seed,
                            std::initializer_list<std::uint64_t> params);

/// Chunked R-MAT: `params.num_edges` quadrant-descent samples with
/// +-10% noise per level (which avoids the degree staircase of
/// noiseless R-MAT), self-loop attempts skipped. Deterministic in
/// (params, seed, chunk_edges).
IoResult StreamRmat(const RmatParams& params, std::uint64_t seed,
                    const ChunkedOptions& options, const EdgeSink& sink);

/// Chunked G(n, m): exactly m uniform non-self-loop edge samples, the
/// sample count partitioned exactly across chunks (chunk c draws the
/// attempts with global indices [c*chunk_edges, min(m, ...))). There is
/// no global dedup set — duplicate samples survive the stream and are
/// removed downstream (Graph::Builder / the extmem merge dedup), so the
/// realised simple-graph edge count can undershoot m slightly, like
/// R-MAT. Self-loops are avoided exactly (dst drawn from [0, n-1) and
/// shifted past src), so no rejection loop exists to grind at the
/// density ceiling; m > n*(n-1) is still rejected as infeasible.
IoResult StreamErdosRenyi(NodeId n, EdgeId m, std::uint64_t seed,
                          const ChunkedOptions& options,
                          const EdgeSink& sink);

/// Chunk-parallel Barabasi-Albert: n nodes, out_k attachment samples
/// per node, preferential attachment realised with the Batagelj-Brandes
/// position array whose random draws are *hash-derived* from the global
/// edge index (Sanders & Schulz, "Scalable Generation of Scale-free
/// Graphs") — any chunk can resolve any attachment chain locally, so
/// the model parallelises with zero communication. Self-loop samples
/// (including the degenerate first edge) are skipped; duplicate
/// (v, dst) samples survive to downstream dedup, so out-degrees can
/// undershoot out_k slightly.
IoResult StreamBarabasiAlbert(NodeId n, NodeId out_k, std::uint64_t seed,
                              const ChunkedOptions& options,
                              const EdgeSink& sink);

/// The hash-resolved attachment target of global BA edge `edge_index`
/// (see StreamBarabasiAlbert). Exposed so tests can replay the chain
/// resolution independently of the chunk driver.
NodeId BarabasiAlbertTarget(std::uint64_t stream_seed, NodeId out_k,
                            std::uint64_t edge_index);

/// Drains `stream` into an in-memory Graph over `num_nodes` nodes,
/// reserving `reserve_edges` when the first batch arrives; the builder
/// drops self-loops and duplicate edges. The in-RAM counterpart of
/// extmem::BuildPackFromEdgeStream, and the only way the in-memory
/// generators (generators.h) sample ER, BA and R-MAT.
Graph BuildGraphFromEdgeStream(const EdgeStreamFn& stream, NodeId num_nodes,
                               EdgeId reserve_edges);

}  // namespace gorder::gen

#endif  // GORDER_GEN_CHUNKED_H_
