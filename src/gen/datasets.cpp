#include "gen/datasets.h"

#include <cmath>

#include "gen/crawl_order.h"
#include "gen/generators.h"
#include "util/logging.h"

namespace gorder::gen {

namespace {

std::uint64_t HashName(const std::string& name) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Node and edge-attempt counts of `spec` at `scale`.
struct Sizes {
  NodeId n;
  EdgeId m;
};

Sizes ScaledSizes(const DatasetSpec& spec, double scale) {
  GORDER_CHECK(scale > 0);
  return {static_cast<NodeId>(std::max(
              64.0, static_cast<double>(spec.sim_nodes) * scale)),
          static_cast<EdgeId>(std::max(
              128.0, static_cast<double>(spec.sim_edges) * scale))};
}

int RmatScale(NodeId n) {
  return std::max(6, static_cast<int>(std::lround(std::log2(n))));
}

/// Node count of a chunked family's id space: R-MAT rounds n to a power
/// of two.
NodeId ChunkedNodes(const DatasetSpec& spec, Sizes s) {
  return spec.generator == "rmat" ? NodeId{1} << RmatScale(s.n) : s.n;
}

/// The one dispatch over the chunked families, shared by both tiers:
/// MakeDataset materialises it, StreamDataset streams it.
IoResult StreamChunked(const DatasetSpec& spec, Sizes s, std::uint64_t seed,
                       const ChunkedOptions& options, const EdgeSink& sink) {
  if (spec.generator == "rmat") {
    RmatParams p;
    p.scale = RmatScale(s.n);
    p.num_edges = s.m;
    return StreamRmat(p, seed, options, sink);
  }
  if (spec.generator == "er") {
    return StreamErdosRenyi(s.n, s.m, seed, options, sink);
  }
  GORDER_CHECK(spec.generator == "ba" && "unknown generator kind");
  const auto out_k = std::max<NodeId>(1, static_cast<NodeId>(s.m / s.n));
  return StreamBarabasiAlbert(s.n, out_k, seed, options, sink);
}

}  // namespace

const std::vector<DatasetSpec>& AllDatasets() {
  // Sizes follow Table 1's ordering (epinion smallest ... sdarc largest)
  // with the absolute range compressed to laptop scale; the inter-dataset
  // size *ratios* are roughly preserved in rank so scalability trends
  // (Table 2) remain visible. Social graphs with strong community
  // structure (pokec, livejournal) use the planted-partition model;
  // follower-style graphs (epinion, flickr, gplus, twitter) use R-MAT;
  // web graphs (wiki, pldarc, sdarc) use the copying model whose shared
  // out-links reproduce hyperlink sibling structure.
  static const std::vector<DatasetSpec>* kSpecs = new std::vector<DatasetSpec>{
      {"epinion", "social", "rmat", 0.0759, 0.509, 8192, 55000, 0.30},
      {"pokec", "social", "planted", 1.63, 30.6, 16000, 130000, 0.30},
      {"flickr", "social", "rmat", 2.30, 33.1, 16384, 150000, 0.25},
      {"livejournal", "social", "planted", 4.85, 69.0, 24000, 260000, 0.30},
      {"wiki", "web", "copying", 13.6, 437.0, 40000, 560000, 0.12},
      {"gplus", "social", "rmat", 28.9, 463.0, 32768, 620000, 0.25},
      {"pldarc", "web", "copying", 42.9, 623.0, 48000, 700000, 0.12},
      {"twitter", "social", "rmat", 61.6, 1470.0, 65536, 880000, 0.25},
      {"sdarc", "web", "copying", 94.9, 1940.0, 64000, 980000, 0.12},
  };
  return *kSpecs;
}

const std::vector<DatasetSpec>& HugeDatasets() {
  // 10^9 edge attempts over 2^26 nodes at scale 1.0 (avg degree ~16,
  // the regime of the BOBA / lightweight-reordering papers). All three
  // are chunked-streaming generators (gen/chunked.h): they never exist
  // as an in-RAM edge list, only as a deterministic edge stream that
  // feeds extmem::ExtPackBuilder. crawl_jump_prob is unused — huge
  // datasets keep the generator's natural id space.
  static const std::vector<DatasetSpec>* kSpecs = new std::vector<DatasetSpec>{
      {"rmat-huge", "social", "rmat", 0.0, 0.0, 1u << 26,
       EdgeId{1} << 30, 0.0, DatasetTier::kHuge},
      {"er-huge", "uniform", "er", 0.0, 0.0, 1u << 26,
       EdgeId{1} << 30, 0.0, DatasetTier::kHuge},
      {"ba-huge", "social", "ba", 0.0, 0.0, 1u << 26,
       EdgeId{1} << 30, 0.0, DatasetTier::kHuge},
  };
  return *kSpecs;
}

const DatasetSpec& GetDatasetSpec(const std::string& name) {
  const DatasetSpec* spec = FindDatasetSpec(name);
  GORDER_CHECK(spec != nullptr && "unknown dataset name");
  return *spec;
}

const DatasetSpec* FindDatasetSpec(const std::string& name) {
  for (const DatasetSpec& spec : AllDatasets()) {
    if (spec.name == name) return &spec;
  }
  for (const DatasetSpec& spec : HugeDatasets()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::string DatasetNames() { return DatasetNames(DatasetTier::kStandard); }

std::string DatasetNames(DatasetTier tier) {
  std::string all;
  const auto& specs =
      tier == DatasetTier::kHuge ? HugeDatasets() : AllDatasets();
  for (const DatasetSpec& spec : specs) {
    if (!all.empty()) all += ", ";
    all += spec.name;
  }
  return all;
}

Graph MakeDataset(const std::string& name, double scale, std::uint64_t seed) {
  const DatasetSpec& spec = GetDatasetSpec(name);
  GORDER_CHECK(spec.tier == DatasetTier::kStandard &&
               "huge-tier datasets are stream-only: use StreamDataset / "
               "gorder_cli --cmd=gen --tier=huge --out=<f.gpack>");
  Rng rng(seed ^ HashName(name));
  const Sizes s = ScaledSizes(spec, scale);

  Graph g;
  if (spec.generator == "planted") {
    PlantedPartitionParams p;
    p.num_nodes = s.n;
    p.num_communities = std::max<NodeId>(8, s.n / 250);
    p.avg_degree = static_cast<double>(s.m) / s.n;
    p.mixing = 0.15;
    g = PlantedPartition(p, rng);
  } else if (spec.generator == "copying") {
    NodeId out_k = std::max<NodeId>(2, static_cast<NodeId>(s.m / s.n));
    g = CopyingModel(s.n, out_k, /*copy_prob=*/0.6, rng);
  } else {
    const std::uint64_t stream_seed = rng.NextU64();
    g = BuildGraphFromEdgeStream(
        [&](const EdgeSink& sink) {
          return StreamChunked(spec, s, stream_seed, {}, sink);
        },
        ChunkedNodes(spec, s), s.m);
  }

  // Expose ids in noisy-crawl order: this *is* the dataset's "Original"
  // ordering for all downstream experiments.
  std::vector<NodeId> crawl =
      MakeCrawlOrderPermutation(g, spec.crawl_jump_prob, rng);
  return g.Relabel(crawl);
}

IoResult StreamDataset(const std::string& name, double scale,
                       std::uint64_t seed, const ChunkedOptions& options,
                       const EdgeSink& sink, NodeId* num_nodes) {
  const DatasetSpec& spec = GetDatasetSpec(name);
  GORDER_CHECK(spec.tier == DatasetTier::kHuge &&
               "StreamDataset serves huge-tier specs; standard datasets "
               "generate in memory via MakeDataset");
  const Sizes s = ScaledSizes(spec, scale);
  if (num_nodes != nullptr) *num_nodes = ChunkedNodes(spec, s);
  return StreamChunked(spec, s, seed ^ HashName(name), options, sink);
}

}  // namespace gorder::gen
