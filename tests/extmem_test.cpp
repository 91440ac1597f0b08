// src/extmem edge cases: the external CSR build must be byte-identical
// to store::WritePack of the equivalent in-memory graph in every corner
// — empty graphs, reserved isolated nodes, single-run and multi-run
// builds, run boundaries landing inside one vertex's adjacency,
// duplicates and self-loops scattered across chunks, and forced
// multi-pass merges. Plus the streaming ingest (text edge lists,
// chunked R-MAT).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/gorder_lib.h"
#include "test_util.h"

namespace gorder {
namespace {

namespace fs = std::filesystem;

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Builds a pack with ExtPackBuilder from `edges` (fed in the given
/// order) and asserts it is byte-identical to WritePack of the
/// equivalent in-memory graph.
void ExpectPackIdentical(const std::vector<Edge>& edges, NodeId reserve_nodes,
                         const extmem::ExtmemOptions& options,
                         extmem::ExtBuildStats* stats_out = nullptr) {
  const ScopedTempDir dir;
  const std::string ext_pack = dir.Path("ext.gpack");
  const std::string mem_pack = dir.Path("mem.gpack");

  extmem::ExtPackBuilder builder(options);
  ASSERT_TRUE(builder.Begin(ext_pack).ok);
  if (reserve_nodes > 0) builder.ReserveNodes(reserve_nodes);
  for (const Edge& e : edges) ASSERT_TRUE(builder.Add(e.src, e.dst).ok);
  IoResult r = builder.Finish();
  ASSERT_TRUE(r.ok) << r.error;
  if (stats_out != nullptr) *stats_out = builder.stats();

  Graph::Builder mem_builder(reserve_nodes);
  for (const Edge& e : edges) mem_builder.AddEdge(e.src, e.dst);
  const Graph graph = mem_builder.Build();
  ASSERT_TRUE(store::WritePack(mem_pack, graph).ok);

  const std::string ext_bytes = ReadAll(ext_pack);
  const std::string mem_bytes = ReadAll(mem_pack);
  ASSERT_EQ(ext_bytes.size(), mem_bytes.size());
  EXPECT_TRUE(ext_bytes == mem_bytes)
      << "extmem pack differs from in-memory pack";

  // The pack must also verify end-to-end (CRCs + fingerprint).
  EXPECT_TRUE(store::VerifyPack(ext_pack).ok);

  // No scratch debris may survive a successful build.
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    EXPECT_EQ(entry.path().string().find(
                  fs::path(ext_pack).filename().string() + ".fwd"),
              std::string::npos)
        << "leftover scratch: " << entry.path();
  }
}

extmem::ExtmemOptions TinyOptions(std::size_t run_buffer_edges,
                                  std::size_t fanin = 64) {
  extmem::ExtmemOptions options;
  options.mem_budget_bytes = 4ull << 20;
  options.run_buffer_edges = run_buffer_edges;
  options.merge_fanin = fanin;
  return options;
}

TEST(ExtCsrTest, EmptyGraph) {
  ExpectPackIdentical({}, 0, TinyOptions(8));
}

TEST(ExtCsrTest, ReservedIsolatedNodes) {
  ExpectPackIdentical({}, 7, TinyOptions(8));
}

TEST(ExtCsrTest, SelfLoopOnlyGrowsNodeCount) {
  // (7,7) is dropped but must still make the graph 8 nodes — exactly
  // Graph::Builder's AddEdge-then-strip semantics.
  ExpectPackIdentical({{7, 7}}, 0, TinyOptions(8));
}

TEST(ExtCsrTest, SingleChunkSmallGraph) {
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 0}};
  ExpectPackIdentical(edges, 0, TinyOptions(1024));
}

TEST(ExtCsrTest, ChunkBoundaryInsideOneVertexAdjacency) {
  // A star whose adjacency list spans many runs: node 0 has 23
  // out-neighbors fed in descending order with a 4-edge run buffer, so
  // every run boundary lands inside node 0's adjacency and the merge
  // must reassemble the sorted list across runs.
  std::vector<Edge> edges;
  for (NodeId v = 23; v >= 1; --v) edges.push_back({0, v});
  extmem::ExtBuildStats stats;
  ExpectPackIdentical(edges, 0, TinyOptions(4), &stats);
  EXPECT_GE(stats.runs_written, 5u);
}

TEST(ExtCsrTest, DuplicatesAndSelfLoopsAcrossChunks) {
  // Duplicates of the same edge land in different runs (buffer 3), with
  // self-loops interleaved; dedup + loop-strip must match FromEdges.
  std::vector<Edge> edges;
  for (int rep = 0; rep < 6; ++rep) {
    edges.push_back({1, 2});
    edges.push_back({static_cast<NodeId>(rep % 4), static_cast<NodeId>(rep % 4)});
    edges.push_back({2, 1});
    edges.push_back({0, 3});
  }
  extmem::ExtBuildStats stats;
  ExpectPackIdentical(edges, 0, TinyOptions(3), &stats);
  EXPECT_GT(stats.runs_written, 1u);
  EXPECT_EQ(stats.edges_final, 3u);  // {1,2},{2,1},{0,3}
}

TEST(ExtCsrTest, MultiPassMergeCompaction) {
  // fanin 2 with a 4-edge buffer over a shuffled 600-edge stream forces
  // several compaction passes; output must still be byte-identical.
  std::vector<Edge> edges;
  Rng rng(7);
  for (int i = 0; i < 600; ++i) {
    edges.push_back({static_cast<NodeId>(rng.Uniform(40)),
                     static_cast<NodeId>(rng.Uniform(40))});
  }
  extmem::ExtBuildStats stats;
  ExpectPackIdentical(edges, 0, TinyOptions(4, 2), &stats);
  EXPECT_GT(stats.merge_passes, 0u);
}

TEST(ExtCsrTest, LargerShuffledGraphWithTinyBudget) {
  std::vector<Edge> edges;
  Rng rng(99);
  for (int i = 0; i < 20000; ++i) {
    edges.push_back({static_cast<NodeId>(rng.Uniform(500)),
                     static_cast<NodeId>(rng.Uniform(500))});
  }
  ExpectPackIdentical(edges, 0, TinyOptions(512, 4));
}

// ---------------------------------------------------------------------------
// Text edge-list streaming ingest

TEST(EdgeListStreamTest, MatchesReadEdgeList) {
  const ScopedTempDir dir;
  const std::string txt = dir.Path("graph.txt");
  {
    std::ofstream out(txt);
    out << "# comment header\n";
    out << "0 1\n1 2\n% konect comment\n2 0\n";
    out << "  3\t4  trailing junk\n";
    out << "4 4\n";  // self-loop
    out << "1 2\n";  // duplicate
  }
  Graph expected;
  ASSERT_TRUE(ReadEdgeList(txt, &expected).ok);

  std::vector<Edge> streamed;
  NodeId max_node = 0;
  bool saw_node = false;
  IoResult r = StreamEdgeList(
      txt,
      [&](const Edge* edges, std::size_t count) {
        streamed.insert(streamed.end(), edges, edges + count);
        return IoResult::Ok();
      },
      &max_node, &saw_node);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(saw_node);
  EXPECT_EQ(max_node, 4u);
  const Graph via_stream =
      Graph::FromEdges(max_node + 1, std::move(streamed));
  EXPECT_EQ(expected.out_offsets(), via_stream.out_offsets());
  EXPECT_EQ(expected.out_neighbors(), via_stream.out_neighbors());
}

TEST(EdgeListStreamTest, ReportsLineNumberOnError) {
  const ScopedTempDir dir;
  const std::string txt = dir.Path("bad.txt");
  {
    std::ofstream out(txt);
    out << "0 1\n1 2\nnot an edge\n2 3\n";
  }
  IoResult r = StreamEdgeList(
      txt,
      [&](const Edge*, std::size_t) { return IoResult::Ok(); });
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find(":3:"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("malformed"), std::string::npos) << r.error;
}

TEST(EdgeListStreamTest, StreamToPackMatchesInMemoryPipeline) {
  const ScopedTempDir dir;
  const std::string txt = dir.Path("graph.txt");
  {
    std::ofstream out(txt);
    Rng rng(3);
    for (int i = 0; i < 5000; ++i) {
      out << rng.Uniform(300) << ' ' << rng.Uniform(300) << '\n';
    }
  }
  const std::string ext_pack = dir.Path("ext.gpack");
  const std::string mem_pack = dir.Path("mem.gpack");
  extmem::ExtBuildStats stats;
  IoResult r = extmem::StreamEdgeListToPack(txt, ext_pack,
                                            TinyOptions(777), &stats);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(stats.edges_ingested, 5000u);

  Graph graph;
  ASSERT_TRUE(ReadEdgeList(txt, &graph).ok);
  ASSERT_TRUE(store::WritePack(mem_pack, graph).ok);
  EXPECT_TRUE(ReadAll(ext_pack) == ReadAll(mem_pack));
}

// ---------------------------------------------------------------------------
// Chunked R-MAT

TEST(StreamRmatTest, DeterministicAndInRange) {
  gen::RmatParams params;
  params.scale = 10;
  params.num_edges = 5000;
  auto collect = [&](std::size_t chunk_edges) {
    std::vector<Edge> edges;
    IoResult r = gen::StreamRmat(params, 42, {.chunk_edges = chunk_edges},
                                 [&](const Edge* e, std::size_t n) {
                                   edges.insert(edges.end(), e, e + n);
                                   return IoResult::Ok();
                                 });
    EXPECT_TRUE(r.ok);
    return edges;
  };
  const auto a = collect(512);
  const auto b = collect(512);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(a == b) << "StreamRmat not deterministic";
  EXPECT_FALSE(a.empty());
  for (const Edge& e : a) {
    EXPECT_LT(e.src, 1u << 10);
    EXPECT_LT(e.dst, 1u << 10);
    EXPECT_NE(e.src, e.dst);  // self-loop attempts skipped
  }
}

TEST(StreamRmatTest, StreamsIntoExtmemPackBitIdentically) {
  const ScopedTempDir dir;
  gen::RmatParams params;
  params.scale = 9;
  params.num_edges = 4000;
  const NodeId n = static_cast<NodeId>(1) << params.scale;

  const std::string ext_pack = dir.Path("rmat_ext.gpack");
  const std::string mem_pack = dir.Path("rmat_mem.gpack");

  extmem::ExtPackBuilder builder(TinyOptions(777));
  ASSERT_TRUE(builder.Begin(ext_pack).ok);
  builder.ReserveNodes(n);
  Graph::Builder mem_builder(n);
  IoResult r = gen::StreamRmat(params, 11, {.chunk_edges = 600},
                               [&](const Edge* e, std::size_t count) {
                                 for (std::size_t i = 0; i < count; ++i) {
                                   mem_builder.AddEdge(e[i].src, e[i].dst);
                                 }
                                 return builder.AddBatch(e, count);
                               });
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(builder.Finish().ok);
  ASSERT_TRUE(store::WritePack(mem_pack, mem_builder.Build()).ok);
  EXPECT_TRUE(ReadAll(ext_pack) == ReadAll(mem_pack));
}

TEST(StreamRmatTest, PropagatesSinkError) {
  gen::RmatParams params;
  params.scale = 8;
  params.num_edges = 10000;
  int calls = 0;
  IoResult r = gen::StreamRmat(params, 1, {.chunk_edges = 100},
                               [&](const Edge*, std::size_t) {
                                 return ++calls >= 3
                                            ? IoResult::Error("sink full")
                                            : IoResult::Ok();
                               });
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "sink full");
  EXPECT_EQ(calls, 3);
}

// ---------------------------------------------------------------------------
// Memory estimates

TEST(MemoryEstimateTest, TracksGraphSize) {
  const auto small = extmem::EstimateMemory(1000, 10000);
  const auto big = extmem::EstimateMemory(1000000, 10000000);
  EXPECT_GT(small.pack_file_bytes, 0u);
  EXPECT_GT(big.pack_file_bytes, small.pack_file_bytes);
  EXPECT_GT(big.copy_load_bytes, small.copy_load_bytes);
  EXPECT_GT(big.inmem_build_peak_bytes, big.copy_load_bytes);
  EXPECT_GT(big.gorder_state_bytes, 0u);
  // The estimate of the mapped pack must match the real file layout.
  EXPECT_EQ(small.pack_file_bytes,
            store::ComputeGpackLayout(1000, 10000).file_bytes);
}

}  // namespace
}  // namespace gorder
