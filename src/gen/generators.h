#ifndef GORDER_GEN_GENERATORS_H_
#define GORDER_GEN_GENERATORS_H_

#include "gen/chunked.h"  // chunked/streaming generators (StreamRmat & co.)
#include "graph/graph.h"
#include "util/io_result.h"
#include "util/rng.h"

namespace gorder::gen {

// ER, BA and R-MAT have one sampler each: the chunked streams of
// gen/chunked.h (included above), bit-identical at any thread count.
// The in-memory forms below drain that stream into a Graph
// (BuildGraphFromEdgeStream), seeded with one draw from `rng`.

/// G(n, m): m uniform non-self-loop edge samples (StreamErdosRenyi).
/// Duplicate samples collapse in the builder, so the graph has at most
/// m distinct edges. No community structure or degree skew; used in
/// tests and as a worst case for locality orderings. Aborts if
/// m > n*(n-1).
Graph ErdosRenyi(NodeId n, EdgeId m, Rng& rng);

/// Directed preferential attachment (StreamBarabasiAlbert): node v
/// emits `out_k` samples whose targets follow the Batagelj-Brandes
/// hash-chain process, so in-degrees are skewed like social graphs.
/// Self-loop and duplicate samples are dropped, so out-degrees can fall
/// slightly below out_k.
Graph BarabasiAlbert(NodeId n, NodeId out_k, Rng& rng);

/// R-MAT over 2^params.scale nodes (StreamRmat): the standard stand-in
/// for crawled social networks. Self-loop and duplicate samples are
/// dropped.
Graph Rmat(const RmatParams& params, Rng& rng);

/// Linear copying model (Kumar et al., FOCS 2000), the classic web-graph
/// model: node i picks a random prototype and copies each of its
/// `out_k` out-links with probability `copy_prob`, otherwise links to a
/// uniform random earlier node. Copying creates many shared-out-neighbour
/// (sibling) pairs — exactly the structure Gorder's Ss term exploits.
Graph CopyingModel(NodeId n, NodeId out_k, double copy_prob, Rng& rng);

/// Watts-Strogatz small world on a directed ring (both directions of each
/// lattice edge emitted, then rewired independently with prob `rewire_p`).
Graph WattsStrogatz(NodeId n, NodeId k, double rewire_p, Rng& rng);

/// Samples n degrees from a discrete power law P(d) ~ d^-exponent over
/// [min_deg, max_deg] by inverse-transform sampling. The standard way to
/// make controlled skewed-degree experiments.
std::vector<NodeId> SamplePowerLawDegrees(NodeId n, double exponent,
                                          NodeId min_deg, NodeId max_deg,
                                          Rng& rng);

/// Directed configuration model: realises the given out- and in-degree
/// sequences (sums must match) by pairing shuffled stubs. Self-loops and
/// parallel edges arising from the pairing are dropped (the standard
/// "erased" configuration model), so realised degrees can undershoot
/// slightly on heavy tails.
Graph DirectedConfigurationModel(const std::vector<NodeId>& out_degrees,
                                 const std::vector<NodeId>& in_degrees,
                                 Rng& rng);

/// Convenience: power-law out- and in-degree sequences (independently
/// sampled, trimmed to a common edge count) through the configuration
/// model — a graph with controlled skew and no community structure.
Graph PowerLawConfigurationGraph(NodeId n, double exponent, NodeId min_deg,
                                 NodeId max_deg, Rng& rng);

/// Planted-partition social model: `num_communities` groups with
/// power-law-ish sizes; each node draws ~`avg_deg` out-edges, each
/// intra-community with probability `1 - mixing`. Gives ground-truth
/// community structure for ordering experiments.
struct PlantedPartitionParams {
  NodeId num_nodes = 10000;
  NodeId num_communities = 50;
  double avg_degree = 12.0;
  double mixing = 0.15;  // fraction of inter-community edges
};
Graph PlantedPartition(const PlantedPartitionParams& params, Rng& rng);

}  // namespace gorder::gen

#endif  // GORDER_GEN_GENERATORS_H_
