// Chunked streaming generation (gen/chunked.h, DESIGN.md §19), the one
// sampler of each of ER, BA and R-MAT:
//   - the windowed parallel driver is bit-identical to the retained
//     serial reference for every generator family, at any thread count
//     (the differential contract);
//   - stream, huge-tier and dataset output is pinned by golden
//     fingerprints at 1/2/8 threads, so a silent change to any PRNG
//     derivation or sampling step fails loudly;
//   - the ER feasibility guard uses exact integer arithmetic (the old
//     double comparison was lossy above 2^53) and fires before the
//     in-memory ErdosRenyi allocates;
//   - the chunked stream packs through extmem::BuildPackFromEdgeStream
//     to byte-identical .gpack files at 1/2/8 threads.

#include "gen/chunked.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <vector>

#include "extmem/ext_csr.h"
#include "gen/datasets.h"
#include "gen/generators.h"
#include "graph/stats.h"
#include "test_util.h"
#include "util/parallel.h"

namespace gorder {
namespace {

struct ThreadGuard {
  explicit ThreadGuard(int n) : saved(NumThreads()) { SetNumThreads(n); }
  ~ThreadGuard() { SetNumThreads(saved); }
  int saved;
};

std::uint64_t FnvEdges(const std::vector<Edge>& edges) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const Edge& e : edges) {
    h ^= e.src;
    h *= 1099511628211ULL;
    h ^= e.dst;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Drains a stream into one flat edge vector, recording per-call chunk
/// sizes.
struct Collected {
  std::vector<Edge> edges;
  std::vector<std::size_t> chunk_sizes;
};

template <typename StreamFn>
Collected Drain(const StreamFn& stream) {
  Collected c;
  IoResult r = stream([&](const Edge* e, std::size_t count) {
    c.edges.insert(c.edges.end(), e, e + count);
    c.chunk_sizes.push_back(count);
    return IoResult::Ok();
  });
  EXPECT_TRUE(r.ok) << r.error;
  return c;
}

gen::RmatParams SmallRmat() {
  gen::RmatParams p;
  p.scale = 10;
  p.num_edges = 20000;
  return p;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// ---------------------------------------------------------------------
// Parallel driver vs serial reference: the differential contract. The
// windowed parallel path must deliver the exact same chunk sequence as
// the retained straight-line serial loop, for every generator family,
// at any thread count.
// ---------------------------------------------------------------------

TEST(ChunkedDifferentialTest, RmatParallelMatchesSerialReference) {
  const gen::RmatParams p = SmallRmat();
  gen::ChunkedOptions serial;
  serial.chunk_edges = 1024;
  serial.serial_reference = true;
  const Collected ref = Drain([&](const EdgeSink& sink) {
    return gen::StreamRmat(p, 42, serial, sink);
  });
  for (int threads : {2, 8}) {
    ThreadGuard guard(threads);
    gen::ChunkedOptions par;
    par.chunk_edges = 1024;
    const Collected got = Drain([&](const EdgeSink& sink) {
      return gen::StreamRmat(p, 42, par, sink);
    });
    EXPECT_EQ(ref.edges, got.edges) << threads << " threads";
    EXPECT_EQ(ref.chunk_sizes, got.chunk_sizes) << threads << " threads";
  }
}

TEST(ChunkedDifferentialTest, ErdosRenyiParallelMatchesSerialReference) {
  gen::ChunkedOptions serial;
  serial.chunk_edges = 512;
  serial.serial_reference = true;
  const Collected ref = Drain([&](const EdgeSink& sink) {
    return gen::StreamErdosRenyi(300, 9000, 7, serial, sink);
  });
  for (int threads : {2, 8}) {
    ThreadGuard guard(threads);
    gen::ChunkedOptions par;
    par.chunk_edges = 512;
    const Collected got = Drain([&](const EdgeSink& sink) {
      return gen::StreamErdosRenyi(300, 9000, 7, par, sink);
    });
    EXPECT_EQ(ref.edges, got.edges) << threads << " threads";
  }
}

TEST(ChunkedDifferentialTest, BarabasiAlbertParallelMatchesSerialReference) {
  gen::ChunkedOptions serial;
  serial.chunk_edges = 700;  // deliberately not a multiple of out_k
  serial.serial_reference = true;
  const Collected ref = Drain([&](const EdgeSink& sink) {
    return gen::StreamBarabasiAlbert(4000, 5, 11, serial, sink);
  });
  for (int threads : {2, 8}) {
    ThreadGuard guard(threads);
    gen::ChunkedOptions par;
    par.chunk_edges = 700;
    const Collected got = Drain([&](const EdgeSink& sink) {
      return gen::StreamBarabasiAlbert(4000, 5, 11, par, sink);
    });
    EXPECT_EQ(ref.edges, got.edges) << threads << " threads";
  }
}

TEST(ChunkedDifferentialTest, WindowSizeIsInvisibleInOutput) {
  ThreadGuard guard(4);
  gen::ChunkedOptions small_window;
  small_window.chunk_edges = 256;
  small_window.window_chunks = 2;
  gen::ChunkedOptions big_window;
  big_window.chunk_edges = 256;
  big_window.window_chunks = 64;
  const Collected a = Drain([&](const EdgeSink& sink) {
    return gen::StreamErdosRenyi(100, 5000, 3, small_window, sink);
  });
  const Collected b = Drain([&](const EdgeSink& sink) {
    return gen::StreamErdosRenyi(100, 5000, 3, big_window, sink);
  });
  EXPECT_EQ(a.edges, b.edges);
}

// ---------------------------------------------------------------------
// Determinism goldens at 1/2/8 threads. The pinned constants freeze the
// full derivation chain (MixParamsSeed -> ChunkSeed -> per-chunk PRNG /
// hash draws); any change to it is a format break for regenerated
// datasets and must be deliberate.
// ---------------------------------------------------------------------

TEST(ChunkedGoldenTest, ErdosRenyiStreamFingerprint) {
  for (int threads : {1, 2, 8}) {
    ThreadGuard guard(threads);
    gen::ChunkedOptions options;
    options.chunk_edges = 1024;
    const Collected c = Drain([&](const EdgeSink& sink) {
      return gen::StreamErdosRenyi(500, 20000, 42, options, sink);
    });
    EXPECT_EQ(c.edges.size(), 20000u);
    EXPECT_EQ(FnvEdges(c.edges), 0xb2643d62a61f76f9ULL)
        << threads << " threads";
  }
}

TEST(ChunkedGoldenTest, BarabasiAlbertStreamFingerprint) {
  for (int threads : {1, 2, 8}) {
    ThreadGuard guard(threads);
    gen::ChunkedOptions options;
    options.chunk_edges = 1024;
    const Collected c = Drain([&](const EdgeSink& sink) {
      return gen::StreamBarabasiAlbert(5000, 4, 42, options, sink);
    });
    EXPECT_EQ(FnvEdges(c.edges), 0x6a6235d5ac060c44ULL)
        << threads << " threads";
  }
}

TEST(ChunkedGoldenTest, RmatStreamFingerprint) {
  const gen::RmatParams p = SmallRmat();
  for (int threads : {1, 2, 8}) {
    ThreadGuard guard(threads);
    gen::ChunkedOptions options;
    options.chunk_edges = 1024;
    const Collected c = Drain([&](const EdgeSink& sink) {
      return gen::StreamRmat(p, 42, options, sink);
    });
    EXPECT_EQ(FnvEdges(c.edges), 0xcc3c209a28e29127ULL)
        << threads << " threads";
  }
}

TEST(ChunkedGoldenTest, HugeTierStreamFingerprints) {
  // The huge-tier streams (what `ingest` packs) at a tiny scale: the
  // registry arithmetic (n, m, R-MAT scale, out_k) and the name-hashed
  // stream seed are frozen along with the samplers.
  struct Case {
    const char* name;
    NodeId nodes;
    std::size_t edges;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {"rmat-huge", 512, 10601, 0xf45684b79cc49ac7ULL},
      {"er-huge", 671, 10737, 0x67f2d76394bcec21ULL},
      {"ba-huge", 671, 10689, 0x62f89acf81940264ULL},
  };
  for (const Case& want : cases) {
    for (int threads : {1, 2, 8}) {
      ThreadGuard guard(threads);
      gen::ChunkedOptions options;
      options.chunk_edges = 2048;
      NodeId nodes = 0;
      const Collected c = Drain([&](const EdgeSink& sink) {
        return gen::StreamDataset(want.name, 1e-5, 42, options, sink, &nodes);
      });
      EXPECT_EQ(nodes, want.nodes) << want.name;
      EXPECT_EQ(c.edges.size(), want.edges) << want.name;
      EXPECT_EQ(FnvEdges(c.edges), want.hash)
          << want.name << " at " << threads << " threads";
    }
  }
}

TEST(ChunkedGoldenTest, RmatDatasetFingerprint) {
  // The R-MAT stand-ins (epinion, flickr, gplus, twitter) materialise
  // StreamRmat, then crawl-relabel on the shared pool.
  for (int threads : {1, 2, 8}) {
    ThreadGuard guard(threads);
    Graph g = gen::MakeDataset("epinion", 0.05, 42);
    EXPECT_EQ(FnvEdges(g.ToEdges()), 0xc458bcb341152255ULL)
        << threads << " threads";
  }
}

TEST(ChunkedGoldenTest, PlantedPartitionDatasetFingerprint) {
  // The planted-partition stand-in (pokec) generates serially; the graph
  // build and crawl relabel behind MakeDataset use the shared pool, so
  // pinning the result at 1/2/8 threads guards the whole path.
  for (int threads : {1, 2, 8}) {
    ThreadGuard guard(threads);
    Graph g = gen::MakeDataset("pokec", 0.05, 42);
    EXPECT_EQ(FnvEdges(g.ToEdges()), 0x02f7d122cf003fdaULL)
        << threads << " threads";
  }
}

// ---------------------------------------------------------------------
// ER chunk semantics: exact partition of the sample count, exact
// self-loop avoidance (no rejection loop to grind at the ceiling).
// ---------------------------------------------------------------------

TEST(StreamErdosRenyiTest, ExactPartitionAcrossChunks) {
  gen::ChunkedOptions options;
  options.chunk_edges = 1024;
  const Collected c = Drain([&](const EdgeSink& sink) {
    return gen::StreamErdosRenyi(60, 2500, 5, options, sink);
  });
  // Every attempt emits exactly one edge: chunks are full-size except
  // the tail, and the total is exactly m.
  ASSERT_EQ(c.chunk_sizes.size(), 3u);
  EXPECT_EQ(c.chunk_sizes[0], 1024u);
  EXPECT_EQ(c.chunk_sizes[1], 1024u);
  EXPECT_EQ(c.chunk_sizes[2], 452u);
  EXPECT_EQ(c.edges.size(), 2500u);
  for (const Edge& e : c.edges) {
    EXPECT_LT(e.src, 60u);
    EXPECT_LT(e.dst, 60u);
    EXPECT_NE(e.src, e.dst);
  }
}

TEST(StreamErdosRenyiTest, DensityCeilingDoesNotGrind) {
  // m = n*(n-1) exactly — the densest request the model admits. The
  // rejection-free sampler emits all of them in one pass; the old
  // rejection-into-dedup-set approach would coupon-collector forever
  // here.
  const NodeId n = 64;
  const EdgeId m = 64 * 63;
  gen::ChunkedOptions options;
  options.chunk_edges = 512;
  const Collected c = Drain([&](const EdgeSink& sink) {
    return gen::StreamErdosRenyi(n, m, 17, options, sink);
  });
  EXPECT_EQ(c.edges.size(), static_cast<std::size_t>(m));
  for (const Edge& e : c.edges) EXPECT_NE(e.src, e.dst);
}

// A node count whose edge-space size n*(n-1) exceeds 2^53.
constexpr NodeId kBeyondDoubleN = 100000000;
constexpr std::uint64_t kBeyondDoubleMax =
    std::uint64_t{kBeyondDoubleN} * (std::uint64_t{kBeyondDoubleN} - 1);

TEST(StreamErdosRenyiTest, InfeasibleRequestAborts) {
  // n*(n-1) = 9999999900000000 > 2^53: IEEE doubles cannot represent
  // max+1 distinctly, so a `double(m) <= double(n)*(n-1)` check would
  // accept it. The guard is exact integer arithmetic.
  ASSERT_EQ(static_cast<double>(kBeyondDoubleMax + 1),
            static_cast<double>(kBeyondDoubleMax))
      << "test premise: max+1 must collapse onto max in double";
  struct Case {
    NodeId n;
    EdgeId m;
  };
  const Case cases[] = {
      {64, 64 * 63 + 1},                       // one past the ceiling
      {kBeyondDoubleN, kBeyondDoubleMax + 1},  // above double precision
      {1u << 16, EdgeId{1} << 60},             // absurd m
  };
  for (const Case& c : cases) {
    EXPECT_DEATH(
        {
          IoResult r = gen::StreamErdosRenyi(
              c.n, c.m, 1, {},
              [](const Edge*, std::size_t) { return IoResult::Ok(); });
          (void)r;
        },
        "m exceeds n")
        << c.n << " nodes, " << c.m << " edges";
  }
}

// ---------------------------------------------------------------------
// In-memory ErdosRenyi guards: it drains the stream above, so the same
// exact-integer CHECK fires, and before the graph allocates anything.
// ---------------------------------------------------------------------

TEST(ErdosRenyiGuardTest, ExactIntegerFeasibilityAboveDoublePrecision) {
  EXPECT_DEATH(
      {
        Rng rng(1);
        Graph g = gen::ErdosRenyi(kBeyondDoubleN, kBeyondDoubleMax + 1, rng);
        (void)g;
      },
      "m exceeds n");
}

TEST(ErdosRenyiGuardTest, GuardsFireBeforeReserve) {
  // An absurd m must die on the feasibility CHECK (clean abort with its
  // message), not inside the allocator. BuildGraphFromEdgeStream reserves
  // only at the first batch, after the stream's CHECK; the CHECK text in
  // the death output is the proof the guard ran first.
  EXPECT_DEATH(
      {
        Rng rng(1);
        Graph g = gen::ErdosRenyi(1u << 16, EdgeId{1} << 60, rng);
        (void)g;
      },
      "m exceeds n");
}

TEST(StreamBarabasiAlbertTest, SkewedInDegrees) {
  gen::ChunkedOptions options;
  options.chunk_edges = 4096;
  const Collected c = Drain([&](const EdgeSink& sink) {
    return gen::StreamBarabasiAlbert(20000, 4, 3, options, sink);
  });
  Graph::Builder builder(20000);
  for (const Edge& e : c.edges) builder.AddEdge(e.src, e.dst);
  Graph g = builder.Build();
  GraphStats s = ComputeStats(g);
  // Preferential attachment: the biggest hub collects far more than the
  // average in-degree (~4).
  EXPECT_GT(s.max_in_degree, 40u);
}

TEST(StreamBarabasiAlbertTest, TargetChainTerminatesAndIsPure) {
  // The hash-resolved Batagelj-Brandes chain must terminate (every odd
  // draw strictly decreases the edge index) and be a pure function of
  // (stream_seed, out_k, edge_index).
  for (std::uint64_t i : {0ull, 1ull, 17ull, 999ull, 123456ull}) {
    const NodeId a = gen::BarabasiAlbertTarget(42, 4, i);
    const NodeId b = gen::BarabasiAlbertTarget(42, 4, i);
    EXPECT_EQ(a, b);
    EXPECT_LE(a, static_cast<NodeId>(i / 4));  // target precedes source
  }
}

// ---------------------------------------------------------------------
// Driver behaviour: sink errors stop the stream at the failing chunk.
// ---------------------------------------------------------------------

TEST(ChunkedDriverTest, ParallelStopsAtFirstSinkError) {
  ThreadGuard guard(8);
  gen::ChunkedOptions options;
  options.chunk_edges = 256;  // many chunks, several windows
  int calls = 0;
  IoResult r = gen::StreamErdosRenyi(
      200, 10000, 1, options, [&](const Edge*, std::size_t) {
        if (++calls == 2) return IoResult::Error("sink full");
        return IoResult::Ok();
      });
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "sink full");
  // Delivery is in ascending chunk order from the calling thread, so
  // the count is exact even though later chunks were already generated.
  EXPECT_EQ(calls, 2);
}

// ---------------------------------------------------------------------
// Huge-tier registry: stream-only specs, deterministic StreamDataset,
// pack bit-identity through the extmem sink adapter.
// ---------------------------------------------------------------------

TEST(HugeDatasetTest, RegistryIsTieredAndStreamOnly) {
  for (const auto& spec : gen::HugeDatasets()) {
    EXPECT_EQ(spec.tier, gen::DatasetTier::kHuge) << spec.name;
    EXPECT_NE(gen::FindDatasetSpec(spec.name), nullptr) << spec.name;
  }
  // Standard names never resolve to huge specs and vice versa.
  EXPECT_EQ(gen::FindDatasetSpec("rmat-huge")->tier, gen::DatasetTier::kHuge);
  EXPECT_EQ(gen::FindDatasetSpec("pokec")->tier, gen::DatasetTier::kStandard);
  EXPECT_DEATH(
      {
        Graph g = gen::MakeDataset("rmat-huge", 0.001, 42);
        (void)g;
      },
      "stream-only");
}

TEST(HugeDatasetTest, StreamDatasetDeterministicAcrossThreads) {
  gen::ChunkedOptions options;
  options.chunk_edges = 2048;
  std::uint64_t first_hash = 0;
  NodeId first_nodes = 0;
  for (int threads : {1, 8}) {
    ThreadGuard guard(threads);
    NodeId nodes = 0;
    const Collected c = Drain([&](const EdgeSink& sink) {
      return gen::StreamDataset("er-huge", 1e-5, 42, options, sink, &nodes);
    });
    EXPECT_GT(nodes, 0u);
    EXPECT_FALSE(c.edges.empty());
    if (threads == 1) {
      first_hash = FnvEdges(c.edges);
      first_nodes = nodes;
    } else {
      EXPECT_EQ(FnvEdges(c.edges), first_hash);
      EXPECT_EQ(nodes, first_nodes);
    }
  }
}

TEST(HugeDatasetTest, PackBitIdenticalAcrossThreadCounts) {
  const ScopedTempDir dir;
  const gen::RmatParams p = SmallRmat();
  extmem::ExtmemOptions ext;
  ext.mem_budget_bytes = 1 << 20;  // force multi-run external sorts
  std::string reference;
  for (int threads : {1, 2, 8}) {
    ThreadGuard guard(threads);
    const std::string pack = dir.Path("t" + std::to_string(threads) + ".gpack");
    gen::ChunkedOptions options;
    options.chunk_edges = 512;
    IoResult r = extmem::BuildPackFromEdgeStream(
        [&](const EdgeSink& sink) {
          return gen::StreamRmat(p, 42, options, sink);
        },
        /*reserve_nodes=*/NodeId{1} << p.scale, pack, ext);
    ASSERT_TRUE(r.ok) << r.error;
    const std::string bytes = ReadAll(pack);
    ASSERT_FALSE(bytes.empty());
    if (threads == 1) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace gorder
