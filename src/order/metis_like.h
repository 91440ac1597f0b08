#ifndef GORDER_ORDER_METIS_LIKE_H_
#define GORDER_ORDER_METIS_LIKE_H_

#include <vector>

#include "graph/graph.h"

namespace gorder::order {

/// A from-scratch multilevel graph partitioner in the Metis mould
/// (Karypis & Kumar). The original paper used Metis as one of its
/// baseline orderings but could only run it on the three smallest
/// datasets; the replication dropped it entirely for memory reasons.
/// This implementation restores the baseline with the standard
/// multilevel recipe, engineered to stay O(m) in memory:
///
///   1. COARSEN:   repeated heavy-edge matching over the undirected
///                 view until the graph is below `coarsen_target` nodes
///                 or shrinkage stalls;
///   2. PARTITION: greedy BFS-region growing bisection on the coarsest
///                 graph;
///   3. UNCOARSEN: project the bisection back up, refining at every
///                 level with a boundary Kernighan-Lin/FM pass
///                 (single sweep, positive-gain moves with balance
///                 constraint).
///
/// The ordering is obtained by recursive bisection: each side is
/// numbered contiguously, recursing until parts fall below
/// `leaf_size`, so highly-connected regions share id ranges — the same
/// mechanism by which Metis orderings improve cache locality.
struct MetisLikeParams {
  NodeId leaf_size = 64;        // stop recursing below this many nodes
  NodeId coarsen_target = 256;  // coarsest graph size per bisection
  double balance = 0.1;         // allowed deviation from a perfect split
  std::uint64_t seed = 42;
};

std::vector<NodeId> MetisLikeOrder(const Graph& graph,
                                   const MetisLikeParams& params = {});

/// Edge-cut of a 2-way partition over the undirected multiset view
/// (exposed for tests and the partitioner's own refinement).
std::uint64_t EdgeCut(const Graph& graph, const std::vector<int>& side);

}  // namespace gorder::order

#endif  // GORDER_ORDER_METIS_LIKE_H_
