#include "order/metis_like.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "util/logging.h"
#include "util/rng.h"

namespace gorder::order {

namespace {

/// Internal weighted undirected graph used across coarsening levels.
/// Every edge appears in both endpoints' lists with its weight.
struct WGraph {
  std::vector<EdgeId> off;
  std::vector<NodeId> adj;
  std::vector<std::uint32_t> wgt;        // edge weights, parallel to adj
  std::vector<std::uint32_t> node_wgt;   // collapsed original node count

  NodeId n() const { return static_cast<NodeId>(node_wgt.size()); }
  std::uint64_t total_node_weight() const {
    std::uint64_t t = 0;
    for (auto w : node_wgt) t += w;
    return t;
  }
};

/// Builds the weighted undirected view of the directed input restricted
/// to `nodes` (ids are re-indexed 0..|nodes|-1).
WGraph InducedUndirected(const Graph& graph,
                         const std::vector<NodeId>& nodes,
                         std::vector<NodeId>& global_to_local) {
  const NodeId k = static_cast<NodeId>(nodes.size());
  for (NodeId i = 0; i < k; ++i) global_to_local[nodes[i]] = i;
  WGraph wg;
  wg.node_wgt.assign(k, 1);
  wg.off.assign(k + 1, 0);
  // Two passes: count then fill, merging parallel/reciprocal edges by
  // accumulating weights with a per-node scratch map.
  std::vector<std::pair<NodeId, std::uint32_t>> row;
  std::vector<std::vector<std::pair<NodeId, std::uint32_t>>> rows(k);
  std::vector<std::uint32_t> weight_of(k, 0);
  std::vector<NodeId> touched;
  for (NodeId i = 0; i < k; ++i) {
    NodeId v = nodes[i];
    touched.clear();
    auto consider = [&](NodeId w) {
      NodeId j = global_to_local[w];
      if (j == kInvalidNode || j == i) return;
      if (weight_of[j] == 0) touched.push_back(j);
      ++weight_of[j];
    };
    for (NodeId w : graph.OutNeighbors(v)) consider(w);
    for (NodeId w : graph.InNeighbors(v)) consider(w);
    rows[i].reserve(touched.size());
    for (NodeId j : touched) {
      rows[i].push_back({j, weight_of[j]});
      weight_of[j] = 0;
    }
  }
  for (NodeId i = 0; i < k; ++i) wg.off[i + 1] = wg.off[i] + rows[i].size();
  wg.adj.resize(wg.off[k]);
  wg.wgt.resize(wg.off[k]);
  for (NodeId i = 0; i < k; ++i) {
    EdgeId e = wg.off[i];
    for (auto [j, w] : rows[i]) {
      wg.adj[e] = j;
      wg.wgt[e] = w;
      ++e;
    }
  }
  for (NodeId i = 0; i < k; ++i) global_to_local[nodes[i]] = kInvalidNode;
  return wg;
}

/// Heavy-edge matching. Returns coarse-node count and the map
/// fine -> coarse.
NodeId HeavyEdgeMatch(const WGraph& g, Rng& rng, std::vector<NodeId>& match) {
  const NodeId n = g.n();
  match.assign(n, kInvalidNode);
  std::vector<NodeId> visit(n);
  std::iota(visit.begin(), visit.end(), 0);
  rng.Shuffle(visit);
  NodeId coarse = 0;
  for (NodeId v : visit) {
    if (match[v] != kInvalidNode) continue;
    NodeId best = kInvalidNode;
    std::uint32_t best_w = 0;
    for (EdgeId e = g.off[v]; e < g.off[v + 1]; ++e) {
      NodeId u = g.adj[e];
      if (match[u] != kInvalidNode) continue;
      if (g.wgt[e] > best_w) {
        best_w = g.wgt[e];
        best = u;
      }
    }
    NodeId id = coarse++;
    match[v] = id;
    if (best != kInvalidNode) match[best] = id;
  }
  // match currently holds coarse ids directly.
  return coarse;
}

/// Contracts g along `fine_to_coarse` into a graph with `coarse_n` nodes.
WGraph Contract(const WGraph& g, const std::vector<NodeId>& fine_to_coarse,
                NodeId coarse_n) {
  WGraph cg;
  cg.node_wgt.assign(coarse_n, 0);
  for (NodeId v = 0; v < g.n(); ++v) {
    cg.node_wgt[fine_to_coarse[v]] += g.node_wgt[v];
  }
  std::vector<std::vector<std::pair<NodeId, std::uint32_t>>> rows(coarse_n);
  std::vector<std::uint32_t> weight_of(coarse_n, 0);
  std::vector<NodeId> touched;
  // Accumulate coarse adjacency per coarse node.
  std::vector<std::vector<NodeId>> members(coarse_n);
  for (NodeId v = 0; v < g.n(); ++v) {
    members[fine_to_coarse[v]].push_back(v);
  }
  for (NodeId c = 0; c < coarse_n; ++c) {
    touched.clear();
    for (NodeId v : members[c]) {
      for (EdgeId e = g.off[v]; e < g.off[v + 1]; ++e) {
        NodeId cu = fine_to_coarse[g.adj[e]];
        if (cu == c) continue;
        if (weight_of[cu] == 0) touched.push_back(cu);
        weight_of[cu] += g.wgt[e];
      }
    }
    rows[c].reserve(touched.size());
    for (NodeId cu : touched) {
      rows[c].push_back({cu, weight_of[cu]});
      weight_of[cu] = 0;
    }
  }
  cg.off.assign(coarse_n + 1, 0);
  for (NodeId c = 0; c < coarse_n; ++c) {
    cg.off[c + 1] = cg.off[c] + rows[c].size();
  }
  cg.adj.resize(cg.off[coarse_n]);
  cg.wgt.resize(cg.off[coarse_n]);
  for (NodeId c = 0; c < coarse_n; ++c) {
    EdgeId e = cg.off[c];
    for (auto [cu, w] : rows[c]) {
      cg.adj[e] = cu;
      cg.wgt[e] = w;
      ++e;
    }
  }
  return cg;
}

/// Greedy BFS region-growing bisection of the (coarsest) graph: grow
/// side 0 from a random seed until it holds ~half the node weight.
std::vector<int> GrowBisection(const WGraph& g, Rng& rng) {
  const NodeId n = g.n();
  std::vector<int> side(n, 1);
  if (n == 0) return side;
  const std::uint64_t half = g.total_node_weight() / 2;
  std::uint64_t grown = 0;
  std::vector<NodeId> queue;
  std::vector<bool> seen(n, false);
  NodeId scan = 0;
  std::size_t head = 0;
  NodeId seed = static_cast<NodeId>(rng.Uniform(n));
  queue.push_back(seed);
  seen[seed] = true;
  while (grown < half) {
    if (head == queue.size()) {
      // Disconnected: restart from any unseen node.
      while (scan < n && seen[scan]) ++scan;
      if (scan == n) break;
      seen[scan] = true;
      queue.push_back(scan);
    }
    NodeId v = queue[head++];
    side[v] = 0;
    grown += g.node_wgt[v];
    for (EdgeId e = g.off[v]; e < g.off[v + 1]; ++e) {
      NodeId u = g.adj[e];
      if (!seen[u]) {
        seen[u] = true;
        queue.push_back(u);
      }
    }
  }
  return side;
}

/// One boundary-refinement sweep (greedy positive-gain moves under a
/// balance constraint). Returns true if anything moved.
bool RefineOnce(const WGraph& g, std::vector<int>& side, double balance) {
  const NodeId n = g.n();
  const std::uint64_t total = g.total_node_weight();
  std::uint64_t weight0 = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (side[v] == 0) weight0 += g.node_wgt[v];
  }
  const auto lo = static_cast<std::uint64_t>(total * (0.5 - balance));
  const auto hi = static_cast<std::uint64_t>(total * (0.5 + balance));
  bool moved = false;
  for (NodeId v = 0; v < n; ++v) {
    // gain = (cut edges) - (internal edges) incident to v.
    std::int64_t gain = 0;
    for (EdgeId e = g.off[v]; e < g.off[v + 1]; ++e) {
      gain += side[g.adj[e]] != side[v]
                  ? static_cast<std::int64_t>(g.wgt[e])
                  : -static_cast<std::int64_t>(g.wgt[e]);
    }
    if (gain <= 0) continue;
    std::uint64_t new_weight0 =
        side[v] == 0 ? weight0 - g.node_wgt[v] : weight0 + g.node_wgt[v];
    if (new_weight0 < lo || new_weight0 > hi) continue;
    side[v] ^= 1;
    weight0 = new_weight0;
    moved = true;
  }
  return moved;
}

/// Multilevel bisection of a weighted graph.
std::vector<int> MultilevelBisect(const WGraph& g,
                                  const MetisLikeParams& params, Rng& rng) {
  if (g.n() <= params.coarsen_target) {
    auto side = GrowBisection(g, rng);
    for (int i = 0; i < 4 && RefineOnce(g, side, params.balance); ++i) {
    }
    return side;
  }
  std::vector<NodeId> match;
  NodeId coarse_n = HeavyEdgeMatch(g, rng, match);
  if (coarse_n >= g.n() * 95 / 100) {
    // Matching stalled (e.g. star graphs): fall back to direct bisection.
    auto side = GrowBisection(g, rng);
    for (int i = 0; i < 4 && RefineOnce(g, side, params.balance); ++i) {
    }
    return side;
  }
  WGraph coarse = Contract(g, match, coarse_n);
  std::vector<int> coarse_side = MultilevelBisect(coarse, params, rng);
  std::vector<int> side(g.n());
  for (NodeId v = 0; v < g.n(); ++v) side[v] = coarse_side[match[v]];
  for (int i = 0; i < 4 && RefineOnce(g, side, params.balance); ++i) {
  }
  return side;
}

/// Recursive-bisection ordering over a node subset.
void OrderRecursive(const Graph& graph, std::vector<NodeId> nodes,
                    const MetisLikeParams& params, Rng& rng,
                    std::vector<NodeId>& global_to_local, NodeId& next_rank,
                    std::vector<NodeId>& perm) {
  if (nodes.size() <= params.leaf_size) {
    // Number leaves in their current (locality-bearing) order.
    for (NodeId v : nodes) perm[v] = next_rank++;
    return;
  }
  WGraph wg = InducedUndirected(graph, nodes, global_to_local);
  std::vector<int> side = MultilevelBisect(wg, params, rng);
  std::vector<NodeId> left, right;
  left.reserve(nodes.size() / 2 + 1);
  right.reserve(nodes.size() / 2 + 1);
  for (NodeId i = 0; i < nodes.size(); ++i) {
    (side[i] == 0 ? left : right).push_back(nodes[i]);
  }
  if (left.empty() || right.empty()) {
    // Degenerate split (tiny or pathological graphs): halve arbitrarily
    // to guarantee progress.
    left.assign(nodes.begin(), nodes.begin() + nodes.size() / 2);
    right.assign(nodes.begin() + nodes.size() / 2, nodes.end());
  }
  OrderRecursive(graph, std::move(left), params, rng, global_to_local,
                 next_rank, perm);
  OrderRecursive(graph, std::move(right), params, rng, global_to_local,
                 next_rank, perm);
}

}  // namespace

std::uint64_t EdgeCut(const Graph& graph, const std::vector<int>& side) {
  GORDER_CHECK(side.size() == graph.NumNodes());
  std::uint64_t cut = 0;
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    for (NodeId w : graph.OutNeighbors(v)) {
      cut += side[v] != side[w];
    }
  }
  return cut;
}

std::vector<NodeId> MetisLikeOrder(const Graph& graph,
                                   const MetisLikeParams& params) {
  const NodeId n = graph.NumNodes();
  std::vector<NodeId> perm(n, kInvalidNode);
  if (n == 0) return perm;
  Rng rng(params.seed);
  std::vector<NodeId> nodes(n);
  std::iota(nodes.begin(), nodes.end(), 0);
  std::vector<NodeId> global_to_local(n, kInvalidNode);
  NodeId next_rank = 0;
  OrderRecursive(graph, std::move(nodes), params, rng, global_to_local,
                 next_rank, perm);
  GORDER_CHECK(next_rank == n);
  return perm;
}

}  // namespace gorder::order
