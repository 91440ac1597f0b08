// src/store round-trip and cache-correctness tests: gpack write -> load
// (both mmap and copy) must be bit-identical to the in-memory graph,
// algorithm kernels must not care whether the CSR is owned or mapped (at
// any thread count), and the ordering artifact cache must return exactly
// what was saved — and nothing when the key does not match.

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

void ExpectSameCsr(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  EXPECT_EQ(a.out_offsets(), b.out_offsets());
  EXPECT_EQ(a.out_neighbors(), b.out_neighbors());
  EXPECT_EQ(a.in_offsets(), b.in_offsets());
  EXPECT_EQ(a.in_neighbors(), b.in_neighbors());
}

/// The shapes that stress the container: empty, no-edge, hub, chain and
/// each generator family.
std::vector<std::pair<std::string, Graph>> InterestingGraphs() {
  std::vector<std::pair<std::string, Graph>> out;
  out.emplace_back("empty", Graph());
  out.emplace_back("single", Graph::FromEdges(1, {}));
  out.emplace_back("isolated", Graph::FromEdges(5, {}));
  {
    std::vector<Edge> star;
    for (NodeId v = 1; v < 64; ++v) star.push_back({0, v});
    out.emplace_back("star", Graph::FromEdges(64, std::move(star)));
  }
  {
    std::vector<Edge> path;
    for (NodeId v = 0; v + 1 < 100; ++v) path.push_back({v, v + 1});
    out.emplace_back("path", Graph::FromEdges(100, std::move(path)));
  }
  out.emplace_back("rmat", gen::MakeDataset("epinion", 0.1, 7));
  out.emplace_back("planted", gen::MakeDataset("pokec", 0.05, 7));
  out.emplace_back("copying", gen::MakeDataset("wiki", 0.03, 7));
  return out;
}

TEST(GpackRoundTrip, MmapAndCopyAreBitIdentical) {
  const ScopedTempDir dir;
  for (auto& [tag, g] : InterestingGraphs()) {
    SCOPED_TRACE(tag);
    const std::string tmp = dir.Path(tag + ".gpack");
    ASSERT_TRUE(store::WritePack(tmp, g).ok);

    Graph mapped;
    ASSERT_TRUE(store::LoadPack(tmp, &mapped, store::LoadMode::kMmap).ok);
    ExpectSameCsr(g, mapped);

    Graph copied;
    ASSERT_TRUE(store::LoadPack(tmp, &copied, store::LoadMode::kCopy).ok);
    ExpectSameCsr(g, copied);
    EXPECT_FALSE(copied.IsMapped());

    // Per-node degrees through the accessor APIs as well.
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      ASSERT_EQ(g.OutDegree(v), mapped.OutDegree(v));
      ASSERT_EQ(g.InDegree(v), mapped.InDegree(v));
    }
    EXPECT_TRUE(store::VerifyPack(tmp).ok);

    store::GpackInfo info;
    ASSERT_TRUE(store::ReadPackInfo(tmp, &info).ok);
    EXPECT_EQ(info.format_version, store::kGpackFormatVersion);
    EXPECT_EQ(info.num_nodes, g.NumNodes());
    EXPECT_EQ(info.num_edges, g.NumEdges());
    EXPECT_EQ(info.fingerprint, store::GraphFingerprint(g));
    EXPECT_EQ(info.sections.size(), 4u);
  }
}

TEST(GpackRoundTrip, AllRegisteredDatasetsSmallScale) {
  const ScopedTempDir dir;
  for (const auto& spec : gen::AllDatasets()) {
    SCOPED_TRACE(spec.name);
    Graph g = gen::MakeDataset(spec.name, 0.02, 3);
    const std::string tmp = dir.Path(spec.name + ".gpack");
    ASSERT_TRUE(store::WritePack(tmp, g).ok);
    Graph mapped;
    ASSERT_TRUE(store::LoadPack(tmp, &mapped).ok);
    ExpectSameCsr(g, mapped);
    EXPECT_TRUE(mapped.IsMapped());
  }
}

// store.pack_write_bytes counts the bytes of the pack on disk. The file
// ends at the last payload byte, not at a 64-byte section boundary, so
// a graph whose m * 4 is not a multiple of 64 tells the two apart.
TEST(GpackRoundTrip, PackWriteBytesCounterEqualsFileSize) {
  const ScopedTempDir dir;
  const Graph g =
      Graph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  ASSERT_NE(g.NumEdges() * sizeof(NodeId) % 64, 0u);
  obs::SetEnabledForTest(true);
  const obs::Counter& written = obs::GetCounter("store.pack_write_bytes");
  const std::uint64_t before = written.Value();
  const std::string pack = dir.Path("odd.gpack");
  ASSERT_TRUE(store::WritePack(pack, g).ok);
  EXPECT_EQ(written.Value() - before, fs::file_size(pack));
}

// GpackWriter contract. The one pack writer takes payload bytes in file
// order in chunks of any size and commits only a complete pack.

/// The four CSR payloads of `g` concatenated in file order.
std::string PayloadBytes(const Graph& g) {
  const std::size_t n_off = static_cast<std::size_t>(g.NumNodes()) + 1;
  const std::size_t m = g.NumEdges();
  std::string bytes;
  auto add = [&](const void* data, std::size_t len) {
    bytes.append(static_cast<const char*>(data), len);
  };
  add(g.out_offsets().data(), n_off * sizeof(EdgeId));
  add(g.out_neighbors().data(), m * sizeof(NodeId));
  add(g.in_offsets().data(), n_off * sizeof(EdgeId));
  add(g.in_neighbors().data(), m * sizeof(NodeId));
  return bytes;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(GpackWriterTest, ShortSectionFailsFinishWithoutDebris) {
  const ScopedTempDir dir;
  const std::string pack = dir.Path("short.gpack");
  const Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  const std::string payload = PayloadBytes(g);
  store::GpackWriter writer;
  ASSERT_TRUE(writer.Begin(pack, g.NumNodes(), g.NumEdges()).ok);
  // All of out_offsets, then out_neighbors one id short.
  const std::size_t short_end =
      (g.NumNodes() + 1) * sizeof(EdgeId) +
      (g.NumEdges() - 1) * sizeof(NodeId);
  ASSERT_TRUE(writer.Append(payload.data(), short_end).ok);
  const IoResult r = writer.Finish(store::GraphFingerprint(g));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("out_neighbors"), std::string::npos) << r.error;
  EXPECT_FALSE(fs::exists(pack));
  EXPECT_TRUE(fs::is_empty(dir.path())) << "staging debris left behind";
}

TEST(GpackWriterTest, RejectsAppendPastLastSection) {
  const ScopedTempDir dir;
  const std::string pack = dir.Path("long.gpack");
  const Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  const std::string payload = PayloadBytes(g) + "x";
  store::GpackWriter writer;
  ASSERT_TRUE(writer.Begin(pack, g.NumNodes(), g.NumEdges()).ok);
  EXPECT_FALSE(writer.Append(payload.data(), payload.size()).ok);
  EXPECT_FALSE(writer.Finish(store::GraphFingerprint(g)).ok);
  EXPECT_FALSE(fs::exists(pack));
  EXPECT_TRUE(fs::is_empty(dir.path())) << "staging debris left behind";
}

TEST(GpackWriterTest, ChunkedAppendsAreByteEqualToWritePack) {
  const ScopedTempDir dir;
  for (auto& [tag, g] : InterestingGraphs()) {
    SCOPED_TRACE(tag);
    const std::string via_pack = dir.Path(tag + ".pack.gpack");
    const std::string via_writer = dir.Path(tag + ".writer.gpack");
    ASSERT_TRUE(store::WritePack(via_pack, g).ok);

    // Varied chunk sizes, many of them straddling a section boundary.
    const std::string payload = PayloadBytes(g);
    store::GpackWriter writer;
    ASSERT_TRUE(writer.Begin(via_writer, g.NumNodes(), g.NumEdges()).ok);
    std::size_t pos = 0, step = 1;
    while (pos < payload.size()) {
      const std::size_t len = std::min(step, payload.size() - pos);
      ASSERT_TRUE(writer.Append(payload.data() + pos, len).ok);
      pos += len;
      step = step * 7 % 997 + 1;
    }
    ASSERT_TRUE(writer.Finish(store::GraphFingerprint(g)).ok);
    EXPECT_TRUE(ReadFileBytes(via_writer) == ReadFileBytes(via_pack));
  }
}

// The serving contract behind zero-copy loading: every kernel produces
// bit-identical results on an owned and an mmap-backed graph, at every
// thread count.
TEST(GpackKernels, IdenticalOwnedVsMappedAtAnyThreadCount) {
  const ScopedTempDir dir;
  Graph g = gen::MakeDataset("flickr", 0.08, 11);
  const std::string tmp = dir.Path("kernels.gpack");
  ASSERT_TRUE(store::WritePack(tmp, g).ok);
  Graph mapped;
  ASSERT_TRUE(store::LoadPack(tmp, &mapped).ok);
  ASSERT_TRUE(mapped.IsMapped());

  const int before = NumThreads();
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    SetNumThreads(threads);
    auto pr_a = algo::PageRank(g, 15);
    auto pr_b = algo::PageRank(mapped, 15);
    EXPECT_EQ(pr_a.rank, pr_b.rank);  // bitwise: both vectors of doubles
    EXPECT_EQ(pr_a.total_mass, pr_b.total_mass);

    auto bfs_a = algo::BfsForest(g);
    auto bfs_b = algo::BfsForest(mapped);
    EXPECT_EQ(bfs_a.level, bfs_b.level);
    EXPECT_EQ(bfs_a.sum_levels, bfs_b.sum_levels);

    auto sp_a = algo::Sp(g, 0);
    auto sp_b = algo::Sp(mapped, 0);
    EXPECT_EQ(sp_a.dist, sp_b.dist);

    auto wcc_a = algo::Wcc(g);
    auto wcc_b = algo::Wcc(mapped);
    EXPECT_EQ(wcc_a.component, wcc_b.component);

    EXPECT_EQ(algo::TriangleCount(g), algo::TriangleCount(mapped));
  }
  SetNumThreads(before);
}

// Relabel of a mapped graph must materialise an owned graph with the
// same content as relabelling the owned original.
TEST(GpackKernels, RelabelOfMappedGraph) {
  const ScopedTempDir dir;
  Graph g = gen::MakeDataset("epinion", 0.1, 5);
  const std::string tmp = dir.Path("relabel.gpack");
  ASSERT_TRUE(store::WritePack(tmp, g).ok);
  Graph mapped;
  ASSERT_TRUE(store::LoadPack(tmp, &mapped).ok);

  order::OrderingParams params;
  auto perm = order::ComputeOrdering(g, order::Method::kGorder, params);
  Graph a = g.Relabel(perm);
  Graph b = mapped.Relabel(perm);
  ExpectSameCsr(a, b);
  EXPECT_FALSE(b.IsMapped());
}

TEST(Fingerprint, StableAndContentSensitive) {
  const ScopedTempDir dir;
  Graph g1 = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  Graph g2 = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  Graph g3 = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 0}});  // one edge off
  Graph g4 = Graph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}});  // extra node
  const auto f1 = store::GraphFingerprint(g1);
  EXPECT_EQ(f1, store::GraphFingerprint(g2));
  EXPECT_NE(f1, store::GraphFingerprint(g3));
  EXPECT_NE(f1, store::GraphFingerprint(g4));
  EXPECT_EQ(store::FingerprintHex(f1).size(), 16u);

  // The fingerprint is part of the on-disk format: a mapped reload must
  // reproduce it exactly.
  const std::string tmp = dir.Path("fp.gpack");
  ASSERT_TRUE(store::WritePack(tmp, g1).ok);
  Graph mapped;
  ASSERT_TRUE(store::LoadPack(tmp, &mapped).ok);
  EXPECT_EQ(f1, store::GraphFingerprint(mapped));
}

TEST(Crc32, KnownVectorAndStreaming) {
  // The canonical CRC-32/IEEE check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  // Streaming in two chunks must equal one shot.
  std::uint32_t seed = Crc32("12345", 5);
  EXPECT_EQ(Crc32("6789", 4, seed), 0xCBF43926u);
}

TEST(OrderingCache, SaveThenLoadRoundTrip) {
  const ScopedTempDir dir;
  const std::string root = dir.Path("store");
  store::Store s(root);
  Graph g = gen::MakeDataset("epinion", 0.1, 9);
  const auto fp = store::GraphFingerprint(g);
  order::OrderingParams params;
  params.seed = 9;
  auto perm = order::ComputeOrdering(g, order::Method::kGorder, params);

  store::Store::CachedOrdering out;
  EXPECT_FALSE(s.LoadOrdering(fp, order::Method::kGorder, params,
                              g.NumNodes(), &out));
  ASSERT_TRUE(
      s.SaveOrdering(fp, order::Method::kGorder, params, perm, 1.25).ok);
  ASSERT_TRUE(s.LoadOrdering(fp, order::Method::kGorder, params,
                             g.NumNodes(), &out));
  EXPECT_EQ(out.perm, perm);
  EXPECT_DOUBLE_EQ(out.compute_seconds, 1.25);
}

TEST(OrderingCache, KeyMismatchesAreMisses) {
  const ScopedTempDir dir;
  const std::string root = dir.Path("store");
  store::Store s(root);
  Graph g = gen::MakeDataset("epinion", 0.1, 9);
  const auto fp = store::GraphFingerprint(g);
  order::OrderingParams params;
  params.seed = 9;
  auto perm = order::ComputeOrdering(g, order::Method::kGorder, params);
  ASSERT_TRUE(
      s.SaveOrdering(fp, order::Method::kGorder, params, perm, 0.5).ok);

  store::Store::CachedOrdering out;
  // Different graph fingerprint.
  EXPECT_FALSE(s.LoadOrdering(fp ^ 1, order::Method::kGorder, params,
                              g.NumNodes(), &out));
  // Different method.
  EXPECT_FALSE(s.LoadOrdering(fp, order::Method::kRcm, params, g.NumNodes(),
                              &out));
  // Different params (window is part of the key).
  order::OrderingParams other = params;
  other.window = 7;
  EXPECT_FALSE(s.LoadOrdering(fp, order::Method::kGorder, other,
                              g.NumNodes(), &out));
  // Wrong node count (caller resolved a different graph).
  EXPECT_FALSE(s.LoadOrdering(fp, order::Method::kGorder, params,
                              g.NumNodes() + 1, &out));
  // Unchanged key still hits.
  EXPECT_TRUE(s.LoadOrdering(fp, order::Method::kGorder, params,
                             g.NumNodes(), &out));
}

TEST(OrderingCache, ParamsHashCoversEveryField) {
  const order::OrderingParams base;
  auto key = [](const order::OrderingParams& p) {
    return store::HashOrderingKey(order::Method::kGorder, p);
  };
  const auto base_key = key(base);
  order::OrderingParams p;

  p = base;
  p.seed = 1;
  EXPECT_NE(key(p), base_key);
  p = base;
  p.window = 9;
  EXPECT_NE(key(p), base_key);
  p = base;
  p.gorder_sibling_score = false;
  EXPECT_NE(key(p), base_key);
  p = base;
  p.gorder_neighbor_score = false;
  EXPECT_NE(key(p), base_key);
  p = base;
  p.gorder_hub_cap = 32;
  EXPECT_NE(key(p), base_key);
  p = base;
  p.gorder_lazy_decrements = true;
  EXPECT_NE(key(p), base_key);
  p = base;
  p.sa_steps = 100;
  EXPECT_NE(key(p), base_key);
  p = base;
  p.sa_standard_energy = 2.0;
  EXPECT_NE(key(p), base_key);
  p = base;
  p.sa_local_search = true;
  EXPECT_NE(key(p), base_key);
  p = base;
  p.ldg_bin_capacity = 128;
  EXPECT_NE(key(p), base_key);

  EXPECT_NE(store::HashOrderingKey(order::Method::kRcm, base), base_key);
  EXPECT_EQ(key(base), base_key);  // deterministic
}

TEST(StoreDatasets, MissThenHitProducesIdenticalGraph) {
  const ScopedTempDir dir;
  const std::string root = dir.Path("store");
  store::Store s(root);
  Graph direct = gen::MakeDataset("epinion", 0.1, 42);

  Graph miss = s.GetDataset("epinion", 0.1, 42);  // generates + packs
  ExpectSameCsr(direct, miss);
  ASSERT_TRUE(fs::exists(s.PackPath("epinion", 0.1, 42)));

  Graph hit = s.GetDataset("epinion", 0.1, 42);  // mmap of the pack
  ExpectSameCsr(direct, hit);
  EXPECT_TRUE(hit.IsMapped());

  // A different recipe gets a different pack file.
  EXPECT_NE(s.PackPath("epinion", 0.1, 42), s.PackPath("epinion", 0.2, 42));
  EXPECT_NE(s.PackPath("epinion", 0.1, 42), s.PackPath("epinion", 0.1, 43));
  EXPECT_NE(s.PackPath("epinion", 0.1, 42), s.PackPath("pokec", 0.1, 42));
}

TEST(StoreDatasets, PackOfAnOlderRecipeIsNotServed) {
  // A store filled before a recipe change holds the old bytes under the
  // old name; the versioned name must never resolve to it.
  const ScopedTempDir dir;
  const std::string root = dir.Path("store");
  store::Store s(root);
  const std::string stale = root + "/packs/epinion-s0.1-r42.gpack";
  fs::create_directories(root + "/packs");
  Rng rng(1);
  ASSERT_TRUE(store::WritePack(stale, gen::ErdosRenyi(64, 256, rng)).ok);
  EXPECT_EQ(s.PackPath("epinion", 0.1, 42),
            root + "/packs/epinion-s0.1-r42-v" +
                std::to_string(gen::kDatasetRecipeVersion) + ".gpack");

  Graph served = s.GetDataset("epinion", 0.1, 42);
  ExpectSameCsr(gen::MakeDataset("epinion", 0.1, 42), served);
  EXPECT_TRUE(fs::exists(s.PackPath("epinion", 0.1, 42)));
}

TEST(StoreDatasets, CorruptPackRegeneratesInsteadOfFailing) {
  const ScopedTempDir dir;
  const std::string root = dir.Path("store");
  store::Store s(root);
  Graph direct = gen::MakeDataset("epinion", 0.1, 42);
  (void)s.GetDataset("epinion", 0.1, 42);

  // Truncate the pack: the store must fall back to regeneration.
  const std::string pack = s.PackPath("epinion", 0.1, 42);
  ASSERT_TRUE(fs::exists(pack));
  fs::resize_file(pack, fs::file_size(pack) / 2);
  Graph recovered = s.GetDataset("epinion", 0.1, 42);
  ExpectSameCsr(direct, recovered);
}

TEST(DatasetRegistry, FindIsNonAbortingAndListsNames) {
  EXPECT_NE(gen::FindDatasetSpec("epinion"), nullptr);
  EXPECT_EQ(gen::FindDatasetSpec("epinion")->name, "epinion");
  EXPECT_EQ(gen::FindDatasetSpec("nope"), nullptr);
  EXPECT_EQ(gen::FindDatasetSpec(""), nullptr);
  std::string names = gen::DatasetNames();
  for (const auto& spec : gen::AllDatasets()) {
    EXPECT_NE(names.find(spec.name), std::string::npos) << names;
  }
}

TEST(ArrayRefTest, OwnedAndBorrowedSemantics) {
  ArrayRef<int> owned(std::vector<int>{1, 2, 3});
  EXPECT_FALSE(owned.borrowed());
  EXPECT_EQ(owned.size(), 3u);
  EXPECT_EQ(owned[1], 2);

  auto backing = std::make_shared<std::vector<int>>(std::vector<int>{4, 5});
  ArrayRef<int> borrowed(backing->data(), backing->size(), backing);
  EXPECT_TRUE(borrowed.borrowed());
  EXPECT_EQ(borrowed.size(), 2u);
  EXPECT_EQ(borrowed[0], 4);

  // Moves must preserve the data pointer contract for both flavours.
  ArrayRef<int> owned2 = std::move(owned);
  EXPECT_EQ(owned2.size(), 3u);
  EXPECT_EQ(owned2[2], 3);
  ArrayRef<int> borrowed2 = std::move(borrowed);
  EXPECT_EQ(borrowed2.data(), backing->data());

  // ToVector detaches from the backing store.
  std::vector<int> copy = borrowed2.ToVector();
  EXPECT_EQ(copy, (std::vector<int>{4, 5}));

  EXPECT_EQ(owned2, ArrayRef<int>(std::vector<int>{1, 2, 3}));
  EXPECT_NE(owned2, borrowed2);
}

}  // namespace
}  // namespace gorder
