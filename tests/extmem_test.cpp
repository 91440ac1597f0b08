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

TEST(ExtCsrTest, BatchesWithSelfLoopsMatchSingleAdds) {
  // AddBatch hands the sorter the stretches between self-loops in bulk;
  // batches that start, end or consist of self-loops, and a run buffer
  // that fills mid-batch, must give the pack that one Add per edge does.
  std::vector<Edge> edges;
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    const auto src = static_cast<NodeId>(rng.Uniform(60));
    const bool loop = rng.Uniform(5) == 0;
    edges.push_back({src, loop ? src : static_cast<NodeId>(rng.Uniform(60))});
  }
  const ScopedTempDir dir;
  const std::string single = dir.Path("single.gpack");
  const std::string batched = dir.Path("batched.gpack");
  extmem::ExtPackBuilder one(TinyOptions(37));
  ASSERT_TRUE(one.Begin(single).ok);
  for (const Edge& e : edges) ASSERT_TRUE(one.Add(e.src, e.dst).ok);
  ASSERT_TRUE(one.Finish().ok);
  extmem::ExtPackBuilder many(TinyOptions(37));
  ASSERT_TRUE(many.Begin(batched).ok);
  for (std::size_t i = 0; i < edges.size();) {
    const std::size_t count =
        std::min<std::size_t>(1 + rng.Uniform(90), edges.size() - i);
    ASSERT_TRUE(many.AddBatch(edges.data() + i, count).ok);
    i += count;
  }
  ASSERT_TRUE(many.Finish().ok);
  EXPECT_EQ(many.stats().edges_ingested, edges.size());
  EXPECT_EQ(many.stats().edges_final, one.stats().edges_final);
  EXPECT_TRUE(ReadAll(single) == ReadAll(batched));
}

TEST(ExtCsrTest, PackBuildReportsItsPhasesAsChildSpans) {
#if defined(GORDER_OBS_DISABLED)
  GTEST_SKIP() << "observability compiled out";
#endif
  obs::SetEnabledForTest(true);
  obs::StopCapture();
  obs::ClearSpans();
  obs::StartCapture();
  std::vector<Edge> edges;
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    edges.push_back({static_cast<NodeId>(rng.Uniform(100)),
                     static_cast<NodeId>(rng.Uniform(100))});
  }
  const ScopedTempDir dir;
  extmem::ExtPackBuilder builder(TinyOptions(64));
  ASSERT_TRUE(builder.Begin(dir.Path("spans.gpack")).ok);
  ASSERT_TRUE(builder.AddBatch(edges.data(), edges.size()).ok);
  ASSERT_TRUE(builder.Finish().ok);
  obs::StopCapture();
  const std::vector<obs::SpanRecord> spans = obs::SnapshotSpans();
  obs::ClearSpans();

  std::int64_t parent = obs::kNoParent;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "extmem.pack_build") {
      parent = static_cast<std::int64_t>(i);
    }
  }
  ASSERT_NE(parent, obs::kNoParent);
  std::vector<std::string> children;
  double children_s = 0;
  for (const obs::SpanRecord& s : spans) {
    if (s.parent != parent) continue;
    children.push_back(s.name);
    EXPECT_GE(s.dur_s, 0.0) << s.name << " left open";
    children_s += s.dur_s;
  }
  EXPECT_EQ(children,
            (std::vector<std::string>{
                "extmem.runs_finish", "extmem.count_transpose",
                "extmem.out_neighbors", "extmem.in_neighbors",
                "extmem.commit"}));
  // Children run one after another inside the parent.
  EXPECT_LE(children_s, spans[static_cast<std::size_t>(parent)].dur_s + 1e-9);
}

// ---------------------------------------------------------------------------
// Radix-sorted runs and the k-way merge

/// Sorts a copy of `edges` with RadixSortEdges and with std::sort in
/// (src, dst) order; the two must agree element for element.
void ExpectRadixMatchesComparisonSort(const std::vector<Edge>& edges) {
  std::vector<Edge> radix = edges;
  std::vector<Edge> scratch;
  extmem::RadixSortEdges(&radix, &scratch);
  std::vector<Edge> expected = edges;
  std::sort(expected.begin(), expected.end(), [](const Edge& a, const Edge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  ASSERT_EQ(radix.size(), expected.size());
  EXPECT_TRUE(radix == expected);
}

TEST(RadixSortEdgesTest, TinyAndDegenerateInputs) {
  ExpectRadixMatchesComparisonSort({});
  ExpectRadixMatchesComparisonSort({{5, 9}});
  ExpectRadixMatchesComparisonSort({{5, 9}, {5, 2}});
  ExpectRadixMatchesComparisonSort({{0, 0}, {0, 0}});
  ExpectRadixMatchesComparisonSort(std::vector<Edge>(1000, Edge{77, 3}));
}

TEST(RadixSortEdgesTest, DuplicatesSortedAndReversedInput) {
  std::vector<Edge> sorted;
  for (NodeId s = 0; s < 50; ++s) {
    for (NodeId d = 0; d < 50; d += 7) sorted.push_back({s, d});
  }
  ExpectRadixMatchesComparisonSort(sorted);
  std::vector<Edge> reversed(sorted.rbegin(), sorted.rend());
  ExpectRadixMatchesComparisonSort(reversed);
  std::vector<Edge> doubled = reversed;
  doubled.insert(doubled.end(), sorted.begin(), sorted.end());
  ExpectRadixMatchesComparisonSort(doubled);
}

TEST(RadixSortEdgesTest, IdsUseAllThirtyTwoBits) {
  // Ids at 0xFFFFFFFE set every digit, including src's top one, the last
  // pass; mixing them with small ids makes every digit vary.
  constexpr NodeId kTop = 0xFFFFFFFEu;
  ExpectRadixMatchesComparisonSort(
      {{kTop, kTop}, {0, kTop}, {kTop, 0}, {1, 1}, {kTop, 1}, {0, 0},
       {kTop - 1, kTop}, {kTop, kTop}, {1u << 31, 1u << 22}});
  std::vector<Edge> edges;
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    edges.push_back({kTop - static_cast<NodeId>(rng.Uniform(3000)),
                     static_cast<NodeId>(rng.Uniform(3000))});
  }
  ExpectRadixMatchesComparisonSort(edges);
}

TEST(RadixSortEdgesTest, RandomBuffersOverSeveralSeeds) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    // Seed 1 draws full 32-bit ids; the others narrower ranges, so some
    // digits are constant and skipped.
    const std::uint64_t range = seed == 1 ? (1ull << 32) : (1ull << (8 * seed));
    std::vector<Edge> edges(100000);
    for (Edge& e : edges) {
      e = {static_cast<NodeId>(rng.Uniform(range)),
           static_cast<NodeId>(rng.Uniform(range))};
    }
    ExpectRadixMatchesComparisonSort(edges);
  }
}

TEST(MergeStreamTest, EdgeInThreeRunsIsEmittedOnceInOrder) {
  const ScopedTempDir dir;
  extmem::RunSet runs;
  ASSERT_TRUE(runs.Create(dir.Path("merge")).ok);
  const std::vector<std::vector<Edge>> contents = {
      {{0, 1}, {2, 3}, {4, 0}},
      {{1, 1}, {2, 3}, {5, 5}},
      {{2, 2}, {2, 3}, {2, 4}, {7, 0}},
  };
  for (const auto& run : contents) {
    ASSERT_TRUE(runs.WriteRun(run.data(), run.size()).ok);
  }
  extmem::MergeStream merge;
  ASSERT_TRUE(merge.Open(runs, 0, runs.NumRuns(), 2).ok);
  std::vector<Edge> out;
  while (true) {
    Edge e;
    bool eof = false;
    ASSERT_TRUE(merge.Next(&e, &eof).ok);
    if (eof) break;
    out.push_back(e);
  }
  EXPECT_TRUE(out == (std::vector<Edge>{{0, 1}, {1, 1}, {2, 2}, {2, 3},
                                        {2, 4}, {4, 0}, {5, 5}, {7, 0}}));
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
