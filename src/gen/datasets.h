#ifndef GORDER_GEN_DATASETS_H_
#define GORDER_GEN_DATASETS_H_

#include <string>
#include <vector>

#include "gen/chunked.h"
#include "graph/graph.h"
#include "util/io_result.h"

namespace gorder::gen {

/// Version of the dataset recipes: bumped whenever MakeDataset returns
/// different bytes for some (name, scale, seed). Store pack names carry
/// it, so a store filled by an older build is never served. 2: the
/// R-MAT stand-ins sample through StreamRmat.
inline constexpr int kDatasetRecipeVersion = 2;

/// Registry tier. Standard datasets are the paper-replication stand-ins
/// that generate in memory; the huge tier (DESIGN.md §19) holds
/// 10^8-10^9-edge chunked-streaming datasets that only exist as edge
/// streams / .gpack files and are gated behind an explicit --tier=huge
/// everywhere user-facing, so nothing tries to materialise one by
/// accident.
enum class DatasetTier { kStandard, kHuge };

/// A registry entry describing one of the paper's benchmark datasets and
/// the synthetic stand-in this repo generates for it (DESIGN.md §4), or
/// a huge-tier streaming dataset (§19).
struct DatasetSpec {
  std::string name;       // paper's dataset name, e.g. "pokec"
  std::string category;   // "social" or "web"
  std::string generator;  // chunked families (gen/chunked.h), either
                          // tier: "rmat", "er", "ba"; standard tier
                          // only: "planted", "copying"
  // Paper-reported sizes (for Table 1 context); zero for huge tier.
  double paper_nodes_m = 0.0;  // millions
  double paper_edges_m = 0.0;  // millions
  // Stand-in sizes at scale = 1. For huge-tier specs sim_edges counts
  // edge *attempts* (downstream dedup can undershoot slightly).
  NodeId sim_nodes = 0;
  EdgeId sim_edges = 0;
  double crawl_jump_prob = 0.1;  // locality of the "Original" numbering
  DatasetTier tier = DatasetTier::kStandard;
};

/// The nine standard datasets of the replication (eight from the
/// original paper plus epinion), ordered smallest to largest as in its
/// figures.
const std::vector<DatasetSpec>& AllDatasets();

/// The huge tier: chunked-streaming datasets at 10^8-10^9 edge attempts
/// (scale 1.0), one per chunked generator family.
const std::vector<DatasetSpec>& HugeDatasets();

/// Spec lookup by name; aborts on unknown name. For user-supplied names
/// (CLI flags, tool arguments) use FindDatasetSpec instead and report the
/// valid names.
const DatasetSpec& GetDatasetSpec(const std::string& name);

/// Non-aborting lookup across both tiers: nullptr if `name` is not a
/// registered dataset. Callers must check `spec->tier` before choosing
/// an in-memory path.
const DatasetSpec* FindDatasetSpec(const std::string& name);

/// Comma-separated registry names ("epinion, pokec, ..."), for "unknown
/// dataset" diagnostics. Standard tier by default.
std::string DatasetNames();
std::string DatasetNames(DatasetTier tier);

/// Generates the synthetic stand-in for `name`. `scale` multiplies the
/// default node/edge counts (0.25 for quick smoke runs, 4+ to stress).
/// The node numbering of the returned graph is the dataset's "Original"
/// ordering: a noisy-crawl relabel that mimics real export locality.
/// Deterministic in (name, scale, seed). Standard tier only: huge-tier
/// specs are stream-only (StreamDataset) and abort here.
Graph MakeDataset(const std::string& name, double scale = 1.0,
                  std::uint64_t seed = 42);

/// Streams a huge-tier dataset's edges through `sink`, chunk-parallel
/// on the shared pool and bit-identical at any thread count
/// (deterministic in (name, scale, seed, options.chunk_edges)). `scale`
/// multiplies the spec's node/attempt budgets like MakeDataset.
/// `*num_nodes` (optional) receives the node-count before streaming
/// starts so sinks can pre-reserve. Huge datasets skip the noisy-crawl
/// relabel — their "Original" ordering is the generator's natural id
/// space, which is what a billion-edge export looks like anyway.
IoResult StreamDataset(const std::string& name, double scale,
                       std::uint64_t seed, const ChunkedOptions& options,
                       const EdgeSink& sink, NodeId* num_nodes = nullptr);

}  // namespace gorder::gen

#endif  // GORDER_GEN_DATASETS_H_
