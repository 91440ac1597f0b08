#include "gen/generators.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <vector>

#include "util/logging.h"

namespace gorder::gen {

Graph ErdosRenyi(NodeId n, EdgeId m, Rng& rng) {
  const std::uint64_t seed = rng.NextU64();
  return BuildGraphFromEdgeStream(
      [&](const EdgeSink& sink) {
        return StreamErdosRenyi(n, m, seed, {}, sink);
      },
      n, m);
}

Graph BarabasiAlbert(NodeId n, NodeId out_k, Rng& rng) {
  const std::uint64_t seed = rng.NextU64();
  return BuildGraphFromEdgeStream(
      [&](const EdgeSink& sink) {
        return StreamBarabasiAlbert(n, out_k, seed, {}, sink);
      },
      n, static_cast<EdgeId>(n) * out_k);
}

Graph Rmat(const RmatParams& params, Rng& rng) {
  const std::uint64_t seed = rng.NextU64();
  return BuildGraphFromEdgeStream(
      [&](const EdgeSink& sink) {
        return StreamRmat(params, seed, {}, sink);
      },
      NodeId{1} << params.scale, params.num_edges);
}

Graph CopyingModel(NodeId n, NodeId out_k, double copy_prob, Rng& rng) {
  GORDER_CHECK(n > out_k + 1 && out_k >= 1);
  GORDER_CHECK(copy_prob >= 0.0 && copy_prob <= 1.0);
  // Adjacency kept during generation so prototypes can be copied.
  std::vector<std::vector<NodeId>> adj(n);
  const NodeId seed_nodes = out_k + 2;
  for (NodeId v = 0; v < seed_nodes; ++v) {
    for (NodeId e = 1; e <= out_k; ++e) {
      adj[v].push_back((v + e) % seed_nodes);
    }
  }
  for (NodeId v = seed_nodes; v < n; ++v) {
    NodeId proto = static_cast<NodeId>(rng.Uniform(v));
    adj[v].reserve(out_k);
    for (NodeId e = 0; e < out_k; ++e) {
      NodeId dst;
      if (rng.UniformDouble() < copy_prob && e < adj[proto].size()) {
        dst = adj[proto][e];
      } else {
        dst = static_cast<NodeId>(rng.Uniform(v));
      }
      if (dst != v) adj[v].push_back(dst);
    }
  }
  Graph::Builder builder(n);
  builder.ReserveEdges(static_cast<std::size_t>(n) * out_k);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId w : adj[v]) builder.AddEdge(v, w);
  }
  return builder.Build();
}

Graph WattsStrogatz(NodeId n, NodeId k, double rewire_p, Rng& rng) {
  GORDER_CHECK(n > 2 * k && k >= 1);
  Graph::Builder builder(n);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId e = 1; e <= k; ++e) {
      NodeId w = (v + e) % n;
      if (rng.UniformDouble() < rewire_p) {
        w = static_cast<NodeId>(rng.Uniform(n));
        if (w == v) w = (v + e) % n;
      }
      builder.AddEdge(v, w);
      builder.AddEdge(w, v);
    }
  }
  return builder.Build();
}

std::vector<NodeId> SamplePowerLawDegrees(NodeId n, double exponent,
                                          NodeId min_deg, NodeId max_deg,
                                          Rng& rng) {
  GORDER_CHECK(min_deg >= 1 && max_deg >= min_deg);
  GORDER_CHECK(exponent > 1.0);
  // Inverse-transform over the continuous power law, rounded down:
  // d = min * (1 - u*(1 - (max/min)^(1-a)))^(1/(1-a)).
  const double a = exponent;
  const double ratio_pow =
      std::pow(static_cast<double>(max_deg) / min_deg, 1.0 - a);
  std::vector<NodeId> degrees(n);
  for (NodeId i = 0; i < n; ++i) {
    double u = rng.UniformDouble();
    double d = min_deg *
               std::pow(1.0 - u * (1.0 - ratio_pow), 1.0 / (1.0 - a));
    degrees[i] = std::min<NodeId>(max_deg,
                                  static_cast<NodeId>(std::floor(d)));
    degrees[i] = std::max(degrees[i], min_deg);
  }
  return degrees;
}

Graph DirectedConfigurationModel(const std::vector<NodeId>& out_degrees,
                                 const std::vector<NodeId>& in_degrees,
                                 Rng& rng) {
  GORDER_CHECK(out_degrees.size() == in_degrees.size());
  const NodeId n = static_cast<NodeId>(out_degrees.size());
  std::vector<NodeId> out_stubs, in_stubs;
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId i = 0; i < out_degrees[v]; ++i) out_stubs.push_back(v);
    for (NodeId i = 0; i < in_degrees[v]; ++i) in_stubs.push_back(v);
  }
  GORDER_CHECK(out_stubs.size() == in_stubs.size());
  rng.Shuffle(in_stubs);
  Graph::Builder builder(n);
  builder.ReserveEdges(out_stubs.size());
  for (std::size_t i = 0; i < out_stubs.size(); ++i) {
    builder.AddEdge(out_stubs[i], in_stubs[i]);
  }
  // Builder strips self-loops and duplicates: the erased variant.
  return builder.Build();
}

Graph PowerLawConfigurationGraph(NodeId n, double exponent, NodeId min_deg,
                                 NodeId max_deg, Rng& rng) {
  auto out_deg = SamplePowerLawDegrees(n, exponent, min_deg, max_deg, rng);
  auto in_deg = SamplePowerLawDegrees(n, exponent, min_deg, max_deg, rng);
  // Trim stubs from the larger side (highest-degree first, one at a
  // time) until the sums match.
  auto sum_of = [](const std::vector<NodeId>& d) {
    std::uint64_t s = 0;
    for (NodeId x : d) s += x;
    return s;
  };
  std::uint64_t so = sum_of(out_deg), si = sum_of(in_deg);
  auto& bigger = so > si ? out_deg : in_deg;
  std::uint64_t excess = so > si ? so - si : si - so;
  for (NodeId v = 0; excess > 0; v = (v + 1) % n) {
    if (bigger[v] > 1) {
      --bigger[v];
      --excess;
    }
  }
  return DirectedConfigurationModel(out_deg, in_deg, rng);
}

Graph PlantedPartition(const PlantedPartitionParams& params, Rng& rng) {
  const NodeId n = params.num_nodes;
  const NodeId c = params.num_communities;
  GORDER_CHECK(n >= c && c >= 1);
  // Power-law-ish community sizes: community i gets mass ~ 1/(i+1),
  // normalised to n. This mimics the skewed community-size distribution
  // of real social networks.
  std::vector<NodeId> community_of(n);
  std::vector<double> mass(c);
  double total_mass = 0.0;
  for (NodeId i = 0; i < c; ++i) {
    mass[i] = 1.0 / std::sqrt(static_cast<double>(i) + 1.0);
    total_mass += mass[i];
  }
  std::vector<NodeId> start(c + 1, 0);
  double acc = 0.0;
  for (NodeId i = 0; i < c; ++i) {
    acc += mass[i];
    start[i + 1] = static_cast<NodeId>(acc / total_mass * n);
  }
  start[c] = n;
  std::vector<std::pair<NodeId, NodeId>> ranges(c);
  for (NodeId i = 0; i < c; ++i) {
    ranges[i] = {start[i], std::max<NodeId>(start[i + 1], start[i] + 1)};
    for (NodeId v = start[i]; v < start[i + 1]; ++v) community_of[v] = i;
  }
  // Endpoint sampling is weighted by a per-node power-law "activity" so
  // the social stand-ins get the skewed degree distributions of real
  // platforms (uniform sampling would give near-Poisson degrees).
  // Tickets: node v appears activity_v times; drawing a ticket samples
  // proportionally to activity. One ticket pool per community plus a
  // global pool for the mixing edges.
  std::vector<NodeId> activity =
      SamplePowerLawDegrees(n, /*exponent=*/2.2, /*min_deg=*/1,
                            /*max_deg=*/std::max<NodeId>(2, n / 40), rng);
  std::vector<std::vector<NodeId>> community_tickets(c);
  std::vector<NodeId> global_tickets;
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId t = 0; t < activity[v]; ++t) {
      community_tickets[community_of[v]].push_back(v);
      global_tickets.push_back(v);
    }
  }

  // Node ids are assigned community-contiguously, then scattered: the
  // caller decides the exposed ordering (see MakeCrawlOrder / datasets).
  const EdgeId m = static_cast<EdgeId>(params.avg_degree * n);
  std::unordered_set<std::uint64_t> seen;
  // Bounded reserve: the table grows on demand past 2^24 buckets.
  seen.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(m * 2, std::uint64_t{1} << 24)));
  Graph::Builder builder(n);
  builder.ReserveEdges(m);
  EdgeId added = 0;
  EdgeId attempts = 0;
  const EdgeId max_attempts = m * 20;
  while (added < m && attempts < max_attempts) {
    ++attempts;
    NodeId src = global_tickets[rng.Uniform(global_tickets.size())];
    NodeId dst;
    if (rng.UniformDouble() >= params.mixing) {
      const auto& pool = community_tickets[community_of[src]];
      dst = pool[rng.Uniform(pool.size())];
    } else {
      dst = global_tickets[rng.Uniform(global_tickets.size())];
    }
    if (src == dst) continue;
    if (seen.insert((static_cast<std::uint64_t>(src) << 32) | dst).second) {
      builder.AddEdge(src, dst);
      ++added;
    }
  }
  return builder.Build();
}

}  // namespace gorder::gen
