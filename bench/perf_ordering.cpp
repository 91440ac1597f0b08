// Raw-speed trajectory bench for the ordering hot paths (ROADMAP item 4):
// times ordering *computation* per (dataset, method), reports the achieved
// locality score and a permutation fingerprint, and writes a snapshot
// entry in the `gorder-bench-ordering` schema — the format of the
// repo-root BENCH_ordering.json perf trajectory. Compare or merge
// snapshots with tools/compare_bench.py.
//
// Timing is always the direct compute path: an active --store-dir only
// accelerates dataset loading, never substitutes a cached ordering, so
// entries are comparable across runs regardless of store warmth.
//
// Cross-machine comparability: every snapshot carries the wall time of a
// fixed pointer-chase calibration kernel; tools/compare_bench.py compares
// calibration-normalised seconds, so a slower CI host does not read as a
// regression (and a faster one does not mask a real one).
//
// Extra flags beyond the shared set (see --help):
//   --methods=a,b     orderings to time (default: Gorder,BOBA; any
//                     registry name works)
//   --window=<w>      Gorder window and the locality-score window
//                     (default 5)
//   --lazy            time Gorder with lazy decrements
//   --label=<s>       label recorded in the snapshot entry (default
//                     "dev")
//   --bench-json=<f>  write the snapshot (single-entry trajectory
//                     document) to <f>
//   --extmem          time the out-of-core pipeline instead: one
//                     "extpack-build" run per dataset (external CSR
//                     build to a scratch .gpack) plus each method as
//                     "<Method>+extmem" (LoadPack(kMmap) of that pack
//                     plus the unchanged kernel, both timed).
//                     Permutation fingerprints stay comparable with the
//                     in-memory rows — the mapped runs are bit-identical
//                     by contract.
//   --mem-budget=<MB> extmem streaming budget (default 256)

#include <ctime>
#include <filesystem>

#include "bench/bench_common.h"
#include "graph/stats.h"
#include "obs/json.h"
#include "obs/report.h"
#include "util/atomic_file.h"
#include "util/rng.h"

namespace gorder {
namespace {

// FNV-1a over the permutation words: a stable fingerprint proving two
// builds produced bit-identical orderings (the refactor contract).
std::uint64_t PermFingerprint(const std::vector<NodeId>& perm) {
  std::uint64_t h = 1469598103934665603ULL;
  for (NodeId v : perm) {
    h ^= v;
    h *= 1099511628211ULL;
  }
  return h;
}

struct RunResult {
  std::string dataset;
  std::string method;
  NodeId nodes = 0;
  EdgeId edges = 0;
  double seconds_median = 0.0;
  double seconds_min = 0.0;
  std::uint64_t locality_score = 0;
  std::uint64_t perm_fnv1a = 0;
  cachesim::HwStats hw;  // from the last repeat; valid only if clean
};

void WriteBenchJson(const std::string& path, const std::string& label,
                    const bench::BenchOptions& opt, NodeId window, bool lazy,
                    double calibration_seconds,
                    const std::vector<RunResult>& runs) {
  obs::EnvFingerprint env = obs::CollectEnvFingerprint();
  obs::JsonWriter json;
  json.BeginObject();
  json.KV("schema", "gorder-bench-ordering");
  json.KV("schema_version", static_cast<std::int64_t>(1));
  json.Key("entries");
  json.BeginArray();
  json.BeginObject();
  json.KV("label", label);
  json.KV("timestamp_unix",
          static_cast<std::int64_t>(std::time(nullptr)));
  json.KV("git_sha", env.git_sha);
  json.KV("cpu_model", env.cpu_model);
  json.KV("threads", static_cast<std::int64_t>(env.threads));
  json.KV("calibration_seconds", calibration_seconds);
  json.Key("runs");
  json.BeginArray();
  for (const auto& r : runs) {
    json.BeginObject();
    json.KV("dataset", r.dataset);
    json.KV("method", r.method);
    json.KV("scale", opt.scale);
    json.KV("seed", static_cast<std::int64_t>(opt.seed));
    json.KV("window", static_cast<std::int64_t>(window));
    json.KV("lazy", lazy);
    json.KV("repeats", static_cast<std::int64_t>(opt.repeats));
    json.KV("nodes", static_cast<std::int64_t>(r.nodes));
    json.KV("edges", static_cast<std::int64_t>(r.edges));
    json.KV("seconds_median", r.seconds_median);
    json.KV("seconds_min", r.seconds_min);
    json.KV("locality_score",
            static_cast<std::int64_t>(r.locality_score));
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(r.perm_fnv1a));
    json.KV("perm_fnv1a", hex);
    if (r.hw.Clean()) {
      json.Key("hw");
      json.BeginObject();
      json.KV("cycles", static_cast<std::int64_t>(r.hw.cycles));
      json.KV("instructions",
              static_cast<std::int64_t>(r.hw.instructions));
      json.KV("ipc", r.hw.Ipc());
      json.KV("l1_miss_rate", r.hw.L1MissRate());
      json.KV("llc_miss_rate", r.hw.LlcMissRate());
      json.EndObject();
    }
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  json.EndArray();
  json.EndObject();
  std::string body = json.TakeString();
  body += '\n';
  if (!util::WriteFileAtomic(path, body.data(), body.size()).ok) {
    std::fprintf(stderr, "perf_ordering: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  GORDER_LOG_INFO("perf_ordering: snapshot written to %s\n", path.c_str());
}

}  // namespace
}  // namespace gorder

int main(int argc, char** argv) {
  using namespace gorder;
  auto opt = bench::BenchOptions::Parse(argc, argv, /*default_scale=*/0.5);
  Flags flags(argc, argv);
  const NodeId window =
      static_cast<NodeId>(flags.GetInt("window", 5));
  const bool lazy = flags.GetBool("lazy", false);
  const bool use_extmem = flags.GetBool("extmem", false);
  extmem::ExtmemOptions ext_options;
  ext_options.mem_budget_bytes =
      static_cast<std::uint64_t>(flags.GetInt("mem-budget", 256)) << 20;
  const std::string label = flags.GetString("label", "dev");
  const std::string bench_json = flags.GetString("bench-json", "");
  std::vector<std::string> method_names;
  {
    std::string names = flags.GetString("methods", "Gorder,BOBA");
    std::size_t pos = 0;
    while (pos != std::string::npos) {
      std::size_t comma = names.find(',', pos);
      method_names.push_back(names.substr(
          pos, comma == std::string::npos ? comma : comma - pos));
      pos = comma == std::string::npos ? comma : comma + 1;
    }
  }

  std::printf(
      "Ordering raw-speed trajectory (scale=%.2f, window=%u, lazy=%d, "
      "repeats=%d, label=%s)\n\n",
      opt.scale, static_cast<unsigned>(window), lazy ? 1 : 0, opt.repeats,
      label.c_str());

  GORDER_LOG_INFO("calibrating machine speed...\n");
  const double calibration = bench::CalibrationSeconds();
  GORDER_LOG_INFO("calibration kernel: %.4fs\n", calibration);

  TablePrinter table({"Dataset", "Method", "Median s", "Min s", "MEdges/s",
                      "F(score)", "PermHash", "L1 miss"});
  std::vector<RunResult> results;
  const bool hw_ok = cachesim::HwCounters::Available();
  for (const auto& name : opt.datasets) {
    GORDER_OBS_SPAN(dataset_span, "dataset:" + name);
    Graph g = bench::MakeDataset(opt, name);
    std::string pack_path;
    if (use_extmem) {
      pack_path = (std::filesystem::temp_directory_path() /
                   ("gorder_perf_" + name + ".gpack"))
                      .string();
      // External CSR build, timed as its own trajectory row. The edges
      // are replayed from the already-generated graph, so the row times
      // the sort/merge/windowed-write pipeline alone.
      const std::vector<Edge> edges = g.ToEdges();
      Timer timer;
      extmem::ExtPackBuilder builder(ext_options);
      bool ok = builder.Begin(pack_path).ok;
      if (ok) {
        builder.ReserveNodes(g.NumNodes());
        ok = builder.AddBatch(edges.data(), edges.size()).ok &&
             builder.Finish().ok;
      }
      if (!ok) {
        std::fprintf(stderr, "perf_ordering: extmem build failed for %s\n",
                     name.c_str());
        return 1;
      }
      RunResult b;
      b.dataset = name;
      b.method = "extpack-build";
      b.nodes = g.NumNodes();
      b.edges = g.NumEdges();
      b.seconds_median = b.seconds_min = timer.Seconds();
      table.AddRow({name, b.method, TablePrinter::Num(b.seconds_median, 4),
                    TablePrinter::Num(b.seconds_min, 4),
                    TablePrinter::Num(static_cast<double>(b.edges) /
                                          std::max(b.seconds_median, 1e-9) /
                                          1e6,
                                      2),
                    "-", "-", "n/a"});
      results.push_back(std::move(b));
    }
    for (const auto& mname : method_names) {
      order::Method method = order::MethodFromName(mname);
      order::OrderingParams params;
      params.seed = opt.seed;
      params.window = window;
      params.gorder_lazy_decrements = lazy;
      RunResult r;
      r.dataset = name;
      r.method = use_extmem ? mname + "+extmem" : mname;
      r.nodes = g.NumNodes();
      r.edges = g.NumEdges();
      std::vector<double> times;
      std::vector<NodeId> perm;
      for (int rep = 0; rep < opt.repeats; ++rep) {
        cachesim::HwCounters hw;
        const bool last = rep + 1 == opt.repeats;
        if (last && hw_ok) hw.Start();
        Timer timer;
        if (use_extmem) {
          // Out of core: the ordering runs over the zero-copy mapped
          // pack, and the timed region includes the validating load.
          Graph mapped;
          IoResult sr =
              store::LoadPack(pack_path, &mapped, store::LoadMode::kMmap);
          if (!sr.ok) {
            std::fprintf(stderr, "perf_ordering: %s\n", sr.error.c_str());
            return 1;
          }
          perm = order::ComputeOrdering(mapped, method, params);
        } else {
          perm = order::ComputeOrdering(g, method, params);
        }
        times.push_back(timer.Seconds());
        if (last && hw_ok) r.hw = hw.Stop();
      }
      std::sort(times.begin(), times.end());
      r.seconds_median = times[times.size() / 2];
      r.seconds_min = times.front();
      r.locality_score = GorderScoreUnderPermutation(g, perm, window);
      r.perm_fnv1a = PermFingerprint(perm);
      char hex[32];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(r.perm_fnv1a));
      table.AddRow(
          {name, r.method, TablePrinter::Num(r.seconds_median, 4),
           TablePrinter::Num(r.seconds_min, 4),
           TablePrinter::Num(static_cast<double>(r.edges) /
                                 std::max(r.seconds_median, 1e-9) / 1e6,
                             2),
           TablePrinter::Count(static_cast<double>(r.locality_score)), hex,
           r.hw.Clean() ? TablePrinter::Num(r.hw.L1MissRate() * 100, 1) + "%"
                        : std::string("n/a")});
      results.push_back(std::move(r));
      GORDER_LOG_INFO("  %s/%s done (%.3fs)\n", name.c_str(), mname.c_str(),
                      results.back().seconds_median);
    }
    if (use_extmem) {
      std::error_code ec;
      std::filesystem::remove(pack_path, ec);
    }
  }
  if (opt.csv) {
    table.PrintCsv();
  } else {
    table.Print();
    std::printf(
        "\ncalibration kernel: %.4fs (pointer chase; normalise seconds by\n"
        "this before comparing entries across machines)\n",
        calibration);
  }
  if (!bench_json.empty()) {
    WriteBenchJson(bench_json, label, opt, window, lazy, calibration,
                   results);
  }
  return 0;
}
