// Tests for the shared parallel runtime and the determinism contract of
// the CSR pipeline: FromEdges / Relabel / ReadEdgeList must produce
// bit-identical CSR arrays at any thread count, and the 1-thread path
// must match a plain serial reference implementation.

#include "util/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <vector>

#include "gen/generators.h"
#include "graph/edgelist_io.h"
#include "graph/graph.h"
#include "test_util.h"
#include "util/rng.h"

namespace gorder {
namespace {

/// Restores the global thread budget when a test exits.
class ThreadGuard {
 public:
  ~ThreadGuard() { SetNumThreads(0); }
};

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadGuard guard;
  for (int threads : {1, 2, 8}) {
    SetNumThreads(threads);
    std::vector<std::atomic<int>> hits(1000);
    ParallelFor(0, hits.size(), 7, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelForTest, EmptyAndTinyRanges) {
  ThreadGuard guard;
  SetNumThreads(4);
  bool called = false;
  ParallelFor(5, 5, 1, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
  int count = 0;
  // Grain larger than the range: one serial call with the whole range.
  ParallelFor(10, 13, 100, [&](std::size_t b, std::size_t e) {
    EXPECT_EQ(b, 10u);
    EXPECT_EQ(e, 13u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(ParallelForTest, RespectsMaxThreadsOne) {
  ThreadGuard guard;
  SetNumThreads(8);
  // max_threads=1 forces the serial path: the body runs on this thread in
  // one call, so unsynchronised writes are safe.
  std::vector<int> data(10000, 0);
  ParallelFor(
      0, data.size(), 64, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) data[i] = static_cast<int>(i);
      },
      /*max_threads=*/1);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(data[i], static_cast<int>(i));
  }
}

TEST(ParallelForTest, GrainOfOne) {
  ThreadGuard guard;
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    std::vector<std::atomic<int>> hits(257);
    ParallelFor(0, hits.size(), 1, [&](std::size_t b, std::size_t e) {
      // Grain 1 means single-index chunks on the parallel path; the
      // serial fast path (threads=1) hands over the whole range at once.
      if (threads > 1) EXPECT_EQ(e, b + 1);
      for (std::size_t i = b; i < e; ++i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelForTest, GrainZeroTreatedAsOne) {
  ThreadGuard guard;
  SetNumThreads(4);
  std::vector<std::atomic<int>> hits(64);
  ParallelFor(0, hits.size(), 0, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelForTest, EmptyRangeAtEveryThreadCount) {
  ThreadGuard guard;
  for (int threads : {1, 2, 8}) {
    SetNumThreads(threads);
    bool called = false;
    ParallelFor(0, 0, 16, [&](std::size_t, std::size_t) { called = true; });
    ParallelFor(7, 7, 16, [&](std::size_t, std::size_t) { called = true; });
    EXPECT_FALSE(called) << threads;
  }
}

// The shape the parallel algorithm kernels produce: a ParallelFor whose
// body forks heterogeneous subtasks via ParallelInvoke, which themselves
// run nested ParallelFors. Help-first nesting must complete every level
// exactly once without deadlock.
TEST(ParallelForTest, InvokeNestedInsideForCompletes) {
  ThreadGuard guard;
  SetNumThreads(4);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 64;
  std::vector<std::atomic<int>> a(kOuter * kInner);
  std::vector<std::atomic<int>> b(kOuter * kInner);
  ParallelFor(0, kOuter, 1, [&](std::size_t ob, std::size_t oe) {
    for (std::size_t o = ob; o < oe; ++o) {
      ParallelInvoke(
          [&, o] {
            ParallelFor(0, kInner, 8, [&](std::size_t ib, std::size_t ie) {
              for (std::size_t i = ib; i < ie; ++i) {
                a[o * kInner + i].fetch_add(1, std::memory_order_relaxed);
              }
            });
          },
          [&, o] {
            ParallelFor(0, kInner, 8, [&](std::size_t ib, std::size_t ie) {
              for (std::size_t i = ib; i < ie; ++i) {
                b[o * kInner + i].fetch_add(1, std::memory_order_relaxed);
              }
            });
          });
    }
  });
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].load(), 1) << "a " << i;
    ASSERT_EQ(b[i].load(), 1) << "b " << i;
  }
}

TEST(ParallelInvokeTest, RunsAllTasks) {
  ThreadGuard guard;
  for (int threads : {1, 3}) {
    SetNumThreads(threads);
    std::atomic<int> a{0}, b{0}, c{0};
    ParallelInvoke([&] { a = 1; }, [&] { b = 2; }, [&] { c = 3; });
    EXPECT_EQ(a.load(), 1);
    EXPECT_EQ(b.load(), 2);
    EXPECT_EQ(c.load(), 3);
  }
}

TEST(ParallelInvokeTest, NestedParallelismCompletes) {
  ThreadGuard guard;
  SetNumThreads(4);
  std::vector<std::atomic<int>> hits(2000);
  ParallelInvoke(
      [&] {
        ParallelFor(0, 1000, 16, [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
        });
      },
      [&] {
        ParallelFor(1000, 2000, 16, [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
        });
      });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelConfigTest, SetAndRestore) {
  ThreadGuard guard;
  SetNumThreads(3);
  EXPECT_EQ(NumThreads(), 3);
  SetNumThreads(0);  // back to default
  EXPECT_GE(NumThreads(), 1);
}

// ---------------------------------------------------------------------------
// Determinism of the CSR pipeline under the pool.

void ExpectSameCsr(const Graph& a, const Graph& b) {
  EXPECT_EQ(a.NumNodes(), b.NumNodes());
  EXPECT_EQ(a.out_offsets(), b.out_offsets());
  EXPECT_EQ(a.out_neighbors(), b.out_neighbors());
  EXPECT_EQ(a.in_offsets(), b.in_offsets());
  EXPECT_EQ(a.in_neighbors(), b.in_neighbors());
}

std::vector<Edge> MessyEdges(NodeId n, std::size_t m, Rng& rng) {
  std::vector<Edge> edges;
  edges.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    auto src = static_cast<NodeId>(rng.Uniform(n));
    // Skew + occasional self-loops and duplicates.
    auto dst = rng.Uniform(4) == 0 ? src : static_cast<NodeId>(rng.Uniform(n));
    edges.push_back({src, dst});
    if (rng.Uniform(8) == 0) edges.push_back({src, dst});
  }
  return edges;
}

TEST(CsrDeterminismTest, FromEdgesIdenticalAtAllThreadCounts) {
  ThreadGuard guard;
  Rng rng(11);
  const NodeId n = 700;
  std::vector<Edge> edges = MessyEdges(n, 20000, rng);
  for (bool keep_loops : {false, true}) {
    for (bool keep_dups : {false, true}) {
      SetNumThreads(1);
      Graph reference = Graph::FromEdges(n, edges, keep_loops, keep_dups);
      for (int threads : {2, 8}) {
        SetNumThreads(threads);
        Graph g = Graph::FromEdges(n, edges, keep_loops, keep_dups);
        ExpectSameCsr(reference, g);
      }
    }
  }
}

TEST(CsrDeterminismTest, RelabelIdenticalAtAllThreadCounts) {
  ThreadGuard guard;
  Rng rng(12);
  Graph g = gen::Rmat({.scale = 10, .num_edges = 30000}, rng);
  std::vector<NodeId> perm = IdentityPermutation(g.NumNodes());
  rng.Shuffle(perm);
  SetNumThreads(1);
  Graph reference = g.Relabel(perm);
  for (int threads : {2, 8}) {
    SetNumThreads(threads);
    Graph h = g.Relabel(perm);
    ExpectSameCsr(reference, h);
  }
}

TEST(CsrDeterminismTest, ReadEdgeListIdenticalAtAllThreadCounts) {
  ThreadGuard guard;
  Rng rng(13);
  Graph g = gen::BarabasiAlbert(800, 6, rng);
  const ScopedTempDir tmp;
  const std::string path = tmp.Path("g.txt");
  ASSERT_TRUE(WriteEdgeList(path, g).ok);
  SetNumThreads(1);
  Graph reference;
  ASSERT_TRUE(ReadEdgeList(path, &reference).ok);
  for (int threads : {2, 8}) {
    SetNumThreads(threads);
    Graph h;
    ASSERT_TRUE(ReadEdgeList(path, &h).ok);
    ExpectSameCsr(reference, h);
  }
}

// ---------------------------------------------------------------------------
// 1-thread output must equal the pre-pool serial implementation: global
// sort + dedup of the edge list, then counting-sort CSR fill. The
// reference pipeline below reproduces those semantics naively.

TEST(CsrDeterminismTest, SerialMatchesReferenceImplementation) {
  ThreadGuard guard;
  SetNumThreads(1);
  Rng rng(14);
  const NodeId n = 300;
  std::vector<Edge> edges = MessyEdges(n, 5000, rng);
  for (bool keep_loops : {false, true}) {
    for (bool keep_dups : {false, true}) {
      Graph got = Graph::FromEdges(n, edges, keep_loops, keep_dups);
      std::vector<Edge> clean = edges;
      if (!keep_loops) {
        std::erase_if(clean, [](const Edge& e) { return e.src == e.dst; });
      }
      std::sort(clean.begin(), clean.end(),
                [](const Edge& a, const Edge& b) {
                  return a.src != b.src ? a.src < b.src : a.dst < b.dst;
                });
      if (!keep_dups) {
        clean.erase(std::unique(clean.begin(), clean.end()), clean.end());
      }
      // Out-CSR against ground truth...
      EXPECT_EQ(got.ToEdges(), clean)
          << "loops=" << keep_loops << " dups=" << keep_dups;
      // ...and the in-CSR: per-target buckets of sources, sorted.
      std::vector<std::vector<NodeId>> in_ref(n);
      for (const Edge& e : clean) in_ref[e.dst].push_back(e.src);
      for (NodeId v = 0; v < n; ++v) {
        std::sort(in_ref[v].begin(), in_ref[v].end());
        auto got_in = got.InNeighbors(v);
        ASSERT_EQ(got_in.size(), in_ref[v].size()) << "node " << v;
        EXPECT_TRUE(std::equal(got_in.begin(), got_in.end(),
                               in_ref[v].begin()))
            << "node " << v;
      }
    }
  }
}

}  // namespace
}  // namespace gorder
