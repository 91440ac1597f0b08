#include "graph/dynamic_graph.h"

#include <gtest/gtest.h>

#include "gen/datasets.h"
#include "gen/generators.h"
#include "graph/stats.h"
#include "order/gorder.h"
#include "order/incremental_gorder.h"
#include "util/rng.h"

namespace gorder {
namespace {

TEST(DynamicGraphTest, BuildsIncrementally) {
  DynamicGraph g;
  NodeId a = g.AddNode();
  NodeId b = g.AddNode();
  NodeId c = g.AddNode();
  EXPECT_TRUE(g.AddEdge(a, b));
  EXPECT_TRUE(g.AddEdge(b, c));
  EXPECT_FALSE(g.AddEdge(a, b));  // duplicate
  EXPECT_FALSE(g.AddEdge(a, a));  // self loop
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_TRUE(g.HasEdge(a, b));
  EXPECT_FALSE(g.HasEdge(b, a));
  EXPECT_EQ(g.OutDegree(b), 1u);
  EXPECT_EQ(g.InDegree(b), 1u);
}

TEST(DynamicGraphTest, RoundTripsWithCsr) {
  Rng rng(1);
  Graph base = gen::ErdosRenyi(200, 900, rng);
  DynamicGraph dyn(base);
  EXPECT_EQ(dyn.NumEdges(), base.NumEdges());
  Graph back = dyn.ToCsr();
  EXPECT_EQ(back.ToEdges(), base.ToEdges());
}

TEST(DynamicGraphTest, GrowsFromSnapshot) {
  Rng rng(2);
  Graph base = gen::ErdosRenyi(100, 300, rng);
  DynamicGraph dyn(base);
  NodeId v = dyn.AddNode();
  EXPECT_TRUE(dyn.AddEdge(v, 0));
  EXPECT_TRUE(dyn.AddEdge(5, v));
  Graph grown = dyn.ToCsr();
  EXPECT_EQ(grown.NumNodes(), base.NumNodes() + 1);
  EXPECT_EQ(grown.NumEdges(), base.NumEdges() + 2);
  EXPECT_TRUE(grown.HasEdge(v, 0));
}

TEST(IncrementalGorderTest, StartsFromFullGorder) {
  Graph base = gen::MakeDataset("epinion", 0.05);
  order::IncrementalGorder inc(base);
  auto perm = inc.CurrentPermutation();
  CheckPermutation(perm, base.NumNodes());
  EXPECT_EQ(perm, order::GorderOrder(base, {}));
  EXPECT_EQ(inc.StalenessRatio(), 0.0);
}

TEST(IncrementalGorderTest, InsertionsKeepValidPermutation) {
  Graph base = gen::MakeDataset("epinion", 0.05);
  order::IncrementalGorder inc(base);
  Rng rng(3);
  const NodeId base_n = base.NumNodes();
  for (int i = 0; i < 200; ++i) {
    NodeId v = inc.AddNode();
    // Each new node links to 3 random existing nodes, both directions.
    for (int e = 0; e < 3; ++e) {
      NodeId u = static_cast<NodeId>(rng.Uniform(base_n));
      inc.AddEdge(v, u);
      inc.AddEdge(u, v);
    }
  }
  auto perm = inc.CurrentPermutation();
  CheckPermutation(perm, inc.graph().NumNodes());
  EXPECT_GT(inc.StalenessRatio(), 0.0);
}

TEST(IncrementalGorderTest, NewNodesLandNearTheirNeighbours) {
  Graph base = gen::MakeDataset("epinion", 0.05);
  order::IncrementalGorder inc(base);
  // A fresh node connected to a single anchor should sit right next to
  // it in the arrangement.
  NodeId anchor = 10;
  NodeId v = inc.AddNode();
  inc.AddEdge(v, anchor);
  auto perm = inc.CurrentPermutation();
  EXPECT_EQ(perm[v], perm[anchor] + 1);
}

TEST(IncrementalGorderTest, IncrementalBeatsAppendOnLocality) {
  // Stream growth: incremental maintenance should preserve much more
  // Gorder-score locality than naive id-append order while the graph
  // has drifted well below the ~25% staleness where the two reach
  // parity (EXPERIMENTS.md, ext_dynamic).
  Graph base = gen::MakeDataset("epinion", 0.08);
  order::IncrementalGorder inc(base);
  DynamicGraph naive(base);
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    NodeId vi = inc.AddNode();
    NodeId vn = naive.AddNode();
    ASSERT_EQ(vi, vn);
    NodeId u = static_cast<NodeId>(rng.Uniform(base.NumNodes()));
    NodeId u2 = static_cast<NodeId>(rng.Uniform(base.NumNodes()));
    inc.AddEdge(vi, u);
    inc.AddEdge(u2, vi);
    naive.AddEdge(vn, u);
    naive.AddEdge(u2, vn);
  }
  Graph grown = naive.ToCsr();
  auto inc_perm = inc.CurrentPermutation();
  std::uint64_t f_inc = GorderScoreUnderPermutation(grown, inc_perm, 5);
  std::uint64_t f_append = GorderScore(grown, 5);
  EXPECT_LT(inc.StalenessRatio(), 0.15);
  EXPECT_GT(f_inc, f_append);
}

TEST(IncrementalGorderTest, FullRebuildResetsStaleness) {
  Graph base = gen::MakeDataset("epinion", 0.05);
  order::IncrementalGorder inc(base);
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    NodeId u = static_cast<NodeId>(rng.Uniform(base.NumNodes()));
    NodeId w = static_cast<NodeId>(rng.Uniform(base.NumNodes()));
    if (u != w) inc.AddEdge(u, w);
  }
  EXPECT_GT(inc.StalenessRatio(), 0.0);
  inc.FullRebuild();
  EXPECT_EQ(inc.StalenessRatio(), 0.0);
  auto perm = inc.CurrentPermutation();
  CheckPermutation(perm, inc.graph().NumNodes());
  // After a rebuild the arrangement equals batch Gorder on the snapshot.
  EXPECT_EQ(perm, order::GorderOrder(inc.graph().ToCsr(), {}));
}

TEST(IncrementalGorderTest, EmptyBaseGrowsSafely) {
  Graph empty;
  order::IncrementalGorder inc(empty);
  NodeId a = inc.AddNode();
  NodeId b = inc.AddNode();
  inc.AddEdge(a, b);
  auto perm = inc.CurrentPermutation();
  CheckPermutation(perm, 2);
}

}  // namespace
}  // namespace gorder
