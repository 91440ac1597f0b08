// Ablation of Gorder's design choices (DESIGN.md §6), not present in the
// papers but justified by them:
//   1. score terms: full S = Ss + Sn vs sibling-only vs neighbour-only;
//   2. the dense-node (hub) cap on sibling updates: quality vs ordering
//      cost;
//   3. unit-heap greedy vs a naive O(n) argmax selection — the reason the
//      unit heap exists.

#include "bench/bench_common.h"
#include "order/unit_heap.h"

namespace gorder {
namespace {

// Naive reference greedy: identical objective, but selects each next node
// by scanning an explicit score array. O(n^2) — run on a reduced graph.
std::vector<NodeId> NaiveGorder(const Graph& g, NodeId window) {
  const NodeId n = g.NumNodes();
  std::vector<NodeId> perm(n, kInvalidNode);
  if (n == 0) return perm;
  std::vector<std::int64_t> score(n, 0);
  std::vector<bool> placed(n, false);
  std::vector<NodeId> recent;
  auto apply = [&](NodeId ve, std::int64_t delta) {
    for (NodeId c : g.OutNeighbors(ve)) score[c] += delta;
    for (NodeId u : g.InNeighbors(ve)) {
      score[u] += delta;
      for (NodeId c : g.OutNeighbors(u)) score[c] += delta;
    }
  };
  NodeId seed = 0;
  for (NodeId v = 1; v < n; ++v) {
    if (g.InDegree(v) > g.InDegree(seed)) seed = v;
  }
  NodeId next_rank = 0;
  auto place = [&](NodeId v) {
    placed[v] = true;
    perm[v] = next_rank++;
    apply(v, +1);
    recent.push_back(v);
    if (recent.size() > window) {
      apply(recent.front(), -1);
      recent.erase(recent.begin());
    }
  };
  place(seed);
  while (next_rank < n) {
    NodeId best = kInvalidNode;
    std::int64_t best_score = -1;
    for (NodeId v = 0; v < n; ++v) {
      if (!placed[v] && score[v] > best_score) {
        best = v;
        best_score = score[v];
      }
    }
    place(best);
  }
  return perm;
}

}  // namespace
}  // namespace gorder

int main(int argc, char** argv) {
  using namespace gorder;
  auto opt = bench::BenchOptions::Parse(argc, argv, /*default_scale=*/0.2);
  Flags flags(argc, argv);
  const std::string dataset = flags.GetString("dataset", "wiki");
  const std::string hub_dataset = flags.GetString("hub-dataset", "gplus");
  const int pr_iters = static_cast<int>(flags.GetInt("pr-iters", 3));

  Graph g = bench::MakeDataset(opt, dataset);
  bench::PrintHeader("Ablation: Gorder variants", g, dataset);
  auto config = harness::MakeDefaultConfig(g, 3, opt.seed);
  config.pagerank_iterations = pr_iters;

  struct Variant {
    std::string name;
    order::OrderingParams params;
  };
  std::vector<Variant> variants;
  variants.push_back({"full (Ss+Sn, exact)", {}});
  {
    order::OrderingParams p;
    p.gorder_sibling_score = false;
    variants.push_back({"neighbour-only (Sn)", p});
  }
  {
    order::OrderingParams p;
    p.gorder_neighbor_score = false;
    variants.push_back({"sibling-only (Ss)", p});
  }
  {
    order::OrderingParams p;
    p.gorder_hub_cap = 16;
    variants.push_back({"hub cap 16", p});
  }
  {
    order::OrderingParams p;
    p.gorder_hub_cap = 0;
    variants.push_back({"no hub cap (exact)", p});
  }
  {
    order::OrderingParams p;
    p.gorder_lazy_decrements = true;
    variants.push_back({"lazy decrements (GO-PQ)", p});
  }

  TablePrinter table(
      {"Variant", "order time", "F(pi,5)", "PR cycles", "L1-mr"});
  for (auto& v : variants) {
    v.params.seed = opt.seed;
    auto timed =
        bench::ComputeOrderingTimed(g, order::Method::kGorder, v.params);
    Graph h = g.Relabel(timed.perm);
    cachesim::CacheHierarchy caches(bench::CacheConfigFromFlags(flags));
    harness::RunWorkloadTraced(h, harness::Workload::kPr, config,
                               timed.perm, caches);
    double pr_cycles =
        caches.stats().compute_cycles + caches.stats().stall_cycles;
    table.AddRow({v.name, TablePrinter::Num(timed.seconds, 3),
                  TablePrinter::Count(static_cast<double>(
                      GorderScoreUnderPermutation(g, timed.perm, 5))),
                  TablePrinter::Count(pr_cycles),
                  TablePrinter::Num(100 * caches.stats().L1MissRate(), 2) +
                      "%"});
  }
  if (opt.csv) {
    table.PrintCsv();
  } else {
    table.Print();
  }

  // The hub cap only binds on graphs with high out-degree hubs (R-MAT
  // follower graphs); wiki's copying model tops out at ~15 out-edges.
  Graph hub_graph = bench::MakeDataset(opt, hub_dataset);
  std::printf("\nHub-cap sensitivity on %s (max out-degree %u):\n",
              hub_dataset.c_str(), ComputeStats(hub_graph).max_out_degree);
  TablePrinter hub_table({"hub cap", "order time", "F(pi,5)"});
  for (NodeId cap : {8u, 64u, 256u, 2048u, 0u}) {
    order::OrderingParams p;
    p.seed = opt.seed;
    p.gorder_hub_cap = cap;
    auto timed = bench::ComputeOrderingTimed(hub_graph,
                                             order::Method::kGorder, p);
    hub_table.AddRow({cap == 0 ? "none (exact)" : std::to_string(cap),
                      TablePrinter::Num(timed.seconds, 3),
                      TablePrinter::Count(static_cast<double>(
                          GorderScoreUnderPermutation(hub_graph, timed.perm,
                                                      5)))});
  }
  hub_table.Print();

  // Unit heap vs naive argmax, on a reduced slice so O(n^2) stays sane.
  Graph small = gen::MakeDataset(dataset, std::min(opt.scale * 2.5, 0.5),
                                 opt.seed);
  Timer t1;
  auto fast = order::GorderOrder(small, {});
  double fast_s = t1.Seconds();
  Timer t2;
  auto naive = NaiveGorder(small, 5);
  double naive_s = t2.Seconds();

  std::printf(
      "\nUnit-heap greedy vs naive argmax greedy on n=%u, m=%llu:\n"
      "  unit heap: %.3fs   naive: %.3fs   speedup: %.1fx\n"
      "  F(unit heap)=%llu  F(naive)=%llu (same objective, near-equal)\n",
      small.NumNodes(),
      static_cast<unsigned long long>(small.NumEdges()), fast_s, naive_s,
      naive_s / std::max(fast_s, 1e-9),
      static_cast<unsigned long long>(
          GorderScoreUnderPermutation(small, fast, 5)),
      static_cast<unsigned long long>(
          GorderScoreUnderPermutation(small, naive, 5)));
  return 0;
}
