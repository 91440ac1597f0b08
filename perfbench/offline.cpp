// Stage "offline": the paper's pipeline on the sdarc web stand-in at one
// thread. The web pack is mapped, ordered four ways (Original, Random,
// BOBA, Gorder), relabelled, the Gorder layout is written back, and
// rounds of PageRank, BFS, SP and k-core run on every layout, interleaved
// so that drift in the machine hits all layouts alike. The traced run
// adds the exact locality of each layout and cachesim replays of
// PageRank and BFS on the registry-scale sdarc instance.
//
// Orderings, relabelling and kernels run serially on the calling thread
// and are timed in its CPU time, so time the host steals from the
// virtual CPU does not count; loading and writing the pack are timed in
// wall time.

#include <array>
#include <cmath>

#include "algo/algorithms.h"
#include "cachesim/cache.h"
#include "common.h"
#include "gen/datasets.h"
#include "graph/locality_profile.h"
#include "graph/stats.h"
#include "harness/experiment.h"
#include "order/ordering.h"
#include "store/gpack.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using gorder::Graph;
using gorder::NodeId;
using gorder::order::Method;

constexpr std::array<Method, 4> kMethods = {Method::kOriginal, Method::kRandom,
                                            Method::kBoba, Method::kGorder};
constexpr std::array<const char*, 4> kMethodNames = {"original", "random",
                                                     "boba", "gorder"};
constexpr std::array<const char*, 4> kKernels = {"pr", "bfs", "sp", "kcore"};
constexpr int kPagerankIterations = 10;
// Cache misses per PageRank iteration barely change after the first, so
// the replay runs only a few.
constexpr int kCachesimPagerankIterations = 3;
// Kernel rounds per run at least; speedups are ratios of their medians.
constexpr int kMinKernelRounds = 9;
// Gorder runs this many times; order_gorder_s is the median.
constexpr int kGorderRepeats = 3;

bool IsBijection(const std::vector<NodeId>& perm) {
  std::vector<char> seen(perm.size(), 0);
  for (NodeId p : perm) {
    if (p >= perm.size() || seen[p]) return false;
    seen[p] = 1;
  }
  return true;
}

/// The layout-invariant part of one kernel round's results.
struct KernelResults {
  NodeId bfs_reached = 0;
  NodeId sp_reached = 0;
  std::uint32_t sp_ecc = 0;
  double pr_mass = 0;
  NodeId max_core = 0;
};

bool SameResults(const KernelResults& a, const KernelResults& b) {
  return a.bfs_reached == b.bfs_reached && a.sp_reached == b.sp_reached &&
         a.sp_ecc == b.sp_ecc && a.max_core == b.max_core &&
         std::fabs(a.pr_mass - b.pr_mass) <= 1e-9 * std::fabs(a.pr_mass);
}

/// Runs the four kernels on one layout, adding each kernel's seconds to
/// `seconds[k]`.
KernelResults KernelRound(const Graph& g, NodeId source, int pr_iterations,
                          std::array<std::vector<double>, 4>* seconds) {
  using namespace gorder;
  KernelResults out;
  ThreadCpuStopwatch sw;
  {
    PB_SPAN(span, "algo.pr");
    out.pr_mass = algo::PageRank(g, pr_iterations).total_mass;
  }
  (*seconds)[0].push_back(sw.Seconds());
  sw = ThreadCpuStopwatch();
  {
    PB_SPAN(span, "algo.bfs");
    out.bfs_reached = algo::Bfs(g, source).num_reached;
  }
  (*seconds)[1].push_back(sw.Seconds());
  sw = ThreadCpuStopwatch();
  {
    PB_SPAN(span, "algo.sp");
    algo::SpResult sp = algo::Sp(g, source);
    out.sp_reached = sp.num_reached;
    out.sp_ecc = sp.max_dist;
  }
  (*seconds)[2].push_back(sw.Seconds());
  sw = ThreadCpuStopwatch();
  {
    PB_SPAN(span, "algo.kcore");
    out.max_core = algo::KCore(g).max_core;
  }
  (*seconds)[3].push_back(sw.Seconds());
  return out;
}

/// A BFS/SP source that reaches much of the graph: of the
/// max-out-degree node and 15 seeded random nodes, the one whose BFS
/// reaches the most nodes (the smallest id on ties).
NodeId WideReachSource(const Graph& g, std::uint64_t seed) {
  std::vector<NodeId> candidates = {
      gorder::harness::MakeDefaultConfig(g).sp_source_logical};
  gorder::Rng rng(seed);
  for (int i = 0; i < 15; ++i) {
    candidates.push_back(static_cast<NodeId>(rng.Uniform(g.NumNodes())));
  }
  NodeId best = candidates[0];
  NodeId best_reach = 0;
  for (NodeId c : candidates) {
    const NodeId reach = gorder::algo::Bfs(g, c).num_reached;
    if (reach > best_reach || (reach == best_reach && c < best)) {
      best = c;
      best_reach = reach;
    }
  }
  return best;
}

/// Exact cache behaviour of PageRank and BFS on each layout of the
/// registry-scale sdarc instance, through the scaled cache geometry.
void CachesimReplay(Run* run) {
  using namespace gorder;
  PB_SPAN(stage, "bench.cachesim");
  Graph g;
  {
    PB_SPAN(span, "gen.make_dataset");
    g = gen::MakeDataset("sdarc", 1.0, run->seed);
  }
  harness::WorkloadConfig config = harness::MakeDefaultConfig(g);
  config.pagerank_iterations = kCachesimPagerankIterations;
  const harness::Workload workloads[2] = {harness::Workload::kPr,
                                          harness::Workload::kBfs};
  const char* workload_names[2] = {"pr", "bfs"};
  std::array<double, 4> cycles{};
  for (std::size_t m = 0; m < kMethods.size(); ++m) {
    std::vector<NodeId> perm;
    {
      PB_SPAN(span, std::string("order.") + kMethodNames[m]);
      order::OrderingParams params;
      params.seed = run->seed;
      perm = order::ComputeOrdering(g, kMethods[m], params);
    }
    Graph layout;
    {
      PB_SPAN(span, "graph.relabel");
      layout = g.Relabel(perm);
    }
    for (int w = 0; w < 2; ++w) {
      PB_SPAN(span, std::string("cachesim.") + workload_names[w]);
      cachesim::CacheHierarchy caches(
          cachesim::CacheHierarchyConfig::ScaledBench());
      harness::RunWorkloadTraced(layout, workloads[w], config, perm, caches);
      const cachesim::CacheStats& s = caches.stats();
      cycles[m] += s.compute_cycles + s.stall_cycles;
      const std::string prefix = std::string("cachesim.") + workload_names[w] +
                                 "." + kMethodNames[m];
      run->Set(prefix + ".l1_misses", static_cast<double>(s.l1_misses),
               "count");
      run->Set(prefix + ".llc_misses", static_cast<double>(s.l3_misses),
               "count");
    }
  }
  run->Set("cachesim.speedup_vs_original", cycles[0] / cycles[3], "x");
  run->Set("cachesim.speedup_vs_random", cycles[1] / cycles[3], "x");
}

}  // namespace

void RunOffline(Run* run) {
  using namespace gorder;
  SetNumThreads(1);  // the paper's single-threaded setting
  const Plan& plan = run->plan;
  Graph g;
  std::array<std::vector<NodeId>, 4> perms;
  std::array<Graph, 4> layouts;
  std::array<double, 4> order_s{};
  double relabel_gorder_s = 0;
  {
    PB_SPAN(stage, "bench.offline");
    Stopwatch load;
    {
      PB_SPAN(span, "store.load");
      IoResult r = store::LoadPack(run->Path("web.gpack"), &g);
      if (!run->Check(r.ok, "offline: LoadPack: " + r.error)) return;
    }
    run->Set("store.load_s", load.Seconds(), "s");
    run->Set("graph.web_nodes", g.NumNodes(), "count");
    run->Set("graph.web_edges", static_cast<double>(g.NumEdges()), "count");
    for (std::size_t m = 0; m < kMethods.size(); ++m) {
      order::OrderingParams params;
      params.seed = run->seed;
      std::vector<double> times;
      const int repeats = kMethods[m] == Method::kGorder ? kGorderRepeats : 1;
      for (int i = 0; i < repeats; ++i) {
        ThreadCpuStopwatch sw;
        {
          PB_SPAN(span, std::string("order.") + kMethodNames[m]);
          perms[m] = order::ComputeOrdering(g, kMethods[m], params);
        }
        times.push_back(sw.Seconds());
      }
      order_s[m] = Median(times);
      run->Check(perms[m].size() == g.NumNodes() && IsBijection(perms[m]),
                 std::string("offline: ") + kMethodNames[m] +
                     " ordering is a bijection");
      // Every layout, Original included, is a relabelled heap copy, so
      // all four live in the same kind of memory.
      ThreadCpuStopwatch sw;
      {
        PB_SPAN(span, "graph.relabel");
        layouts[m] = g.Relabel(perms[m]);
      }
      if (kMethods[m] == Method::kGorder) relabel_gorder_s = sw.Seconds();
    }
    Stopwatch write;
    {
      PB_SPAN(span, "store.write");
      IoResult r = store::WritePack(run->Path("web_gorder.gpack"), layouts[3]);
      run->Check(r.ok, "offline: WritePack: " + r.error);
    }
    run->Set("store.write_s", write.Seconds(), "s");
    if (run->trace) {
      PB_SPAN(span, "graph.locality");
      for (std::size_t m = 0; m < kMethods.size(); ++m) {
        const std::string prefix = std::string("order.") + kMethodNames[m];
        run->Set(prefix + ".score",
                 static_cast<double>(
                     GorderScoreUnderPermutation(g, perms[m], 5)),
                 "count");
        const LocalityProfile profile = ComputeLocalityProfile(layouts[m]);
        run->Set(prefix + ".avg_log2_gap", profile.avg_log2_gap, "log2");
        run->Set(prefix + ".same_line_frac", profile.same_line_fraction,
                 "ratio");
      }
    }
  }
  run->Set("order_gorder_s", order_s[3], "s");
  run->Set("order.gorder_s", order_s[3], "s");
  run->Set("order.boba_s", order_s[2], "s");
  run->Set("order.random_s", order_s[1], "s");
  run->Set("graph.relabel_s", relabel_gorder_s, "s");

  // Kernel rounds. The BFS/SP source is logical (a node of the Original
  // numbering, mapped into each layout).
  NodeId source_logical = 0;
  {
    PB_SPAN(span, "algo.bfs_source");
    source_logical = WideReachSource(g, run->seed);
  }
  // seconds[m][k]: per-round seconds of kernel k on layout m;
  // round_s[m]: per-round four-kernel seconds on layout m.
  std::array<std::array<std::vector<double>, 4>, 4> seconds;
  std::array<std::vector<double>, 4> traced_round_s, untraced_round_s;
  KernelResults reference;
  Stopwatch stage;
  for (int round = 0; round < kMinKernelRounds ||
                      stage.Seconds() < plan.kernel_share * run->seconds;
       ++round) {
    const bool traced = run->trace && !UntracedRound(*run, round);
    if (run->trace) SetTracing(traced);
    Stopwatch round_wall;
    PB_SPAN(span, "bench.kernel_round");
    for (std::size_t j = 0; j < kMethods.size(); ++j) {
      const std::size_t m = (round + j) % kMethods.size();
      ThreadCpuStopwatch sw;
      KernelResults results =
          KernelRound(layouts[m], perms[m][source_logical],
                      kPagerankIterations, &seconds[m]);
      (traced ? traced_round_s : untraced_round_s)[m].push_back(sw.Seconds());
      if (round == 0 && j == 0) {
        reference = results;
      } else {
        run->Check(SameResults(reference, results),
                   std::string("offline: kernel results on ") +
                       kMethodNames[m] + " match the first layout");
      }
    }
    if (run->trace && !traced) run->untraced_s += round_wall.Seconds();
  }
  if (run->trace) SetTracing(true);
  const auto& round_s = untraced_round_s[0].empty() ? traced_round_s
                                                    : untraced_round_s;
  std::array<double, 4> median_round{};
  for (std::size_t m = 0; m < kMethods.size(); ++m) {
    median_round[m] = Median(round_s[m]);
    for (std::size_t k = 0; k < kKernels.size(); ++k) {
      run->Set(std::string("algo.") + kKernels[k] + "." + kMethodNames[m] +
                   "_s",
               Median(seconds[m][k]), "s");
    }
  }
  run->Set("kernels_gorder_s", median_round[3], "s");
  run->Set("speedup_vs_original", median_round[0] / median_round[3], "x");
  run->Set("speedup_vs_random", median_round[1] / median_round[3], "x");
  run->Set("bench.breakeven_runs",
           (order_s[3] + relabel_gorder_s) / (median_round[1] - median_round[3]),
           "count");
  if (run->trace) {
    double traced_sum = 0, untraced_sum = 0;
    for (std::size_t m = 0; m < kMethods.size(); ++m) {
      traced_sum += Median(traced_round_s[m]);
      untraced_sum += Median(untraced_round_s[m]);
    }
    run->Set("obs.kernel_overhead_frac", traced_sum / untraced_sum - 1,
             "ratio");
    CachesimReplay(run);
  }
}

}  // namespace perfbench
