// Generation throughput bench for the chunked streaming generators
// (DESIGN.md §19): times chunk-parallel edge production per generator
// family, reports attempts/s, the stream fingerprint (the bit-identity
// contract across thread counts) and peak RSS, and writes a snapshot in
// the `gorder-bench-gen` schema — the format of the repo-root
// BENCH_gen.json trajectory. Compare or merge snapshots with
// tools/compare_bench.py (same tool as the ordering trajectory; the two
// schemas share structure and the calibration-normalised comparison).
//
// Two modes:
//   --mode=count   drain the stream into a fingerprinting sink — pure
//                  generation speed, no I/O.
//   --mode=pack    stream into extmem::BuildPackFromEdgeStream — the
//                  full generate-to-.gpack pipeline (external sort,
//                  merge, windowed write) under --mem-budget. Peak RSS
//                  of this mode is the headline out-of-core claim: a
//                  10^9-edge graph packs without a global edge list.
//
// Extra flags beyond the shared set (see --help):
//   --gens=a,b        generator subset: rmat, er, ba (default rmat)
//   --gen-scale=<S>   log2 node count (default 20)
//   --gen-edge-factor=<k>  R-MAT/ER: edge attempts = k << S;
//                     BA: out_k = k (attempts = k << S too) (default 16)
//   --mode=count|pack (default count)
//   --chunk-edges=<c> edge attempts per chunk (determinism key;
//                     default 2^18)
//   --mem-budget=<MB> extmem streaming budget for --mode=pack
//   --pack-out=<f>    keep the pack at <f.gpack> (default: temp file,
//                     removed after timing)
//   --label=<s>       label recorded in the snapshot (default "dev")
//   --bench-json=<f>  write the snapshot to <f>

#include <sys/resource.h>

#include <ctime>
#include <filesystem>
#include <functional>

#include "bench/bench_common.h"
#include "obs/json.h"
#include "obs/report.h"
#include "util/atomic_file.h"

namespace gorder {
namespace {

/// Peak RSS of this process so far, in MiB. A high-water mark: in a
/// multi-run invocation every run reports the max over all runs so far,
/// so single out a run with its own invocation when the number matters
/// (the CI memory claim does exactly that via ulimit anyway).
double PeakRssMb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// FNV-1a over the delivered edge words in stream order. Equal
/// fingerprints at different --threads prove the delivered stream — not
/// just the packed graph — is bit-identical.
struct StreamFingerprint {
  std::uint64_t hash = 1469598103934665603ULL;
  std::uint64_t edges = 0;

  void Mix(const Edge* e, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      hash ^= e[i].src;
      hash *= 1099511628211ULL;
      hash ^= e[i].dst;
      hash *= 1099511628211ULL;
    }
    edges += count;
  }
};

struct GenSpec {
  std::string name;     // snapshot dataset name, e.g. "rmat-s20"
  NodeId num_nodes = 0;
  std::uint64_t attempts = 0;
  std::function<IoResult(const EdgeSink&)> stream;
};

struct GenResult {
  std::string dataset;
  std::string method;  // "gen-count" | "gen-pack"
  NodeId nodes = 0;
  std::uint64_t attempts = 0;
  std::uint64_t edges_final = 0;  // pack mode: post-dedup edge count
  double seconds_median = 0.0;
  double seconds_min = 0.0;
  std::uint64_t stream_fnv1a = 0;
  double peak_rss_mb = 0.0;
};

void WriteBenchJson(const std::string& path, const std::string& label,
                    const bench::BenchOptions& opt, int gen_scale,
                    int edge_factor, std::size_t chunk_edges,
                    double calibration_seconds,
                    const std::vector<GenResult>& runs) {
  obs::EnvFingerprint env = obs::CollectEnvFingerprint();
  obs::JsonWriter json;
  json.BeginObject();
  json.KV("schema", "gorder-bench-gen");
  json.KV("schema_version", static_cast<std::int64_t>(1));
  json.Key("entries");
  json.BeginArray();
  json.BeginObject();
  json.KV("label", label);
  json.KV("timestamp_unix", static_cast<std::int64_t>(std::time(nullptr)));
  json.KV("git_sha", env.git_sha);
  json.KV("cpu_model", env.cpu_model);
  json.KV("threads", static_cast<std::int64_t>(env.threads));
  json.KV("calibration_seconds", calibration_seconds);
  json.Key("runs");
  json.BeginArray();
  for (const auto& r : runs) {
    json.BeginObject();
    // The first six keys mirror the ordering schema's match tuple
    // (tools/compare_bench.py MATCH_KEYS); "threads" joins the tuple so
    // runs at different thread counts stay separate trajectory series.
    json.KV("dataset", r.dataset);
    json.KV("method", r.method);
    json.KV("scale", static_cast<std::int64_t>(gen_scale));
    json.KV("seed", static_cast<std::int64_t>(opt.seed));
    json.KV("window", static_cast<std::int64_t>(0));
    json.KV("lazy", false);
    json.KV("threads", static_cast<std::int64_t>(NumThreads()));
    json.KV("repeats", static_cast<std::int64_t>(opt.repeats));
    json.KV("edge_factor", static_cast<std::int64_t>(edge_factor));
    json.KV("chunk_edges", static_cast<std::int64_t>(chunk_edges));
    json.KV("nodes", static_cast<std::int64_t>(r.nodes));
    json.KV("edges", static_cast<std::int64_t>(r.attempts));
    json.KV("edges_final", static_cast<std::int64_t>(r.edges_final));
    json.KV("seconds_median", r.seconds_median);
    json.KV("seconds_min", r.seconds_min);
    json.KV("locality_score", static_cast<std::int64_t>(0));
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(r.stream_fnv1a));
    json.KV("perm_fnv1a", hex);  // the stream fingerprint, same role
    json.KV("peak_rss_mb", r.peak_rss_mb);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  json.EndArray();
  json.EndObject();
  std::string body = json.TakeString();
  body += '\n';
  if (!util::WriteFileAtomic(path, body.data(), body.size()).ok) {
    std::fprintf(stderr, "perf_gen: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  GORDER_LOG_INFO("perf_gen: snapshot written to %s\n", path.c_str());
}

}  // namespace
}  // namespace gorder

int main(int argc, char** argv) {
  using namespace gorder;
  auto opt = bench::BenchOptions::Parse(argc, argv, /*default_scale=*/1.0);
  Flags flags(argc, argv);
  const int gen_scale = static_cast<int>(flags.GetInt("gen-scale", 20));
  const int edge_factor =
      static_cast<int>(flags.GetInt("gen-edge-factor", 16));
  const std::string mode = flags.GetString("mode", "count");
  if (mode != "count" && mode != "pack") {
    std::fprintf(stderr, "error: --mode must be count or pack (got '%s')\n",
                 mode.c_str());
    return 2;
  }
  if (gen_scale < 1 || gen_scale > 31 || edge_factor < 1) {
    std::fprintf(stderr, "error: need 1 <= --gen-scale <= 31 and "
                         "--gen-edge-factor >= 1\n");
    return 2;
  }
  gen::ChunkedOptions chunked;
  chunked.chunk_edges =
      static_cast<std::size_t>(flags.GetInt("chunk-edges", 1u << 18));
  extmem::ExtmemOptions ext_options;
  ext_options.mem_budget_bytes =
      static_cast<std::uint64_t>(flags.GetInt("mem-budget", 256)) << 20;
  ext_options.scratch_dir = flags.GetString("scratch-dir", "");
  const std::string label = flags.GetString("label", "dev");
  const std::string bench_json = flags.GetString("bench-json", "");
  const std::string pack_out = flags.GetString("pack-out", "");

  const auto n = static_cast<NodeId>(NodeId{1} << gen_scale);
  const std::uint64_t attempts = std::uint64_t{edge_factor} << gen_scale;
  std::vector<GenSpec> specs;
  {
    std::string names = flags.GetString("gens", "rmat");
    std::size_t pos = 0;
    while (pos != std::string::npos) {
      std::size_t comma = names.find(',', pos);
      const std::string g = names.substr(
          pos, comma == std::string::npos ? comma : comma - pos);
      pos = comma == std::string::npos ? comma : comma + 1;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s-s%d", g.c_str(), gen_scale);
      GenSpec spec;
      spec.name = buf;
      spec.num_nodes = n;
      spec.attempts = attempts;
      const std::uint64_t seed = opt.seed;
      if (g == "rmat") {
        gen::RmatParams p;
        p.scale = gen_scale;
        p.num_edges = attempts;
        spec.stream = [p, seed, chunked](const EdgeSink& sink) {
          return gen::StreamRmat(p, seed, chunked, sink);
        };
      } else if (g == "er") {
        spec.stream = [n, attempts, seed, chunked](
                          const EdgeSink& sink) {
          return gen::StreamErdosRenyi(n, attempts, seed, chunked, sink);
        };
      } else if (g == "ba") {
        const auto out_k = static_cast<NodeId>(edge_factor);
        spec.stream = [n, out_k, seed, chunked](const EdgeSink& sink) {
          return gen::StreamBarabasiAlbert(n, out_k, seed, chunked, sink);
        };
      } else {
        std::fprintf(stderr,
                     "error: unknown generator '%s' in --gens "
                     "(valid: rmat, er, ba)\n",
                     g.c_str());
        return 2;
      }
      specs.push_back(std::move(spec));
    }
  }

  std::printf(
      "Chunked generation throughput (gen-scale=%d, edge-factor=%d, "
      "mode=%s, chunk-edges=%zu, repeats=%d, threads=%d, label=%s)\n\n",
      gen_scale, edge_factor, mode.c_str(), chunked.chunk_edges, opt.repeats,
      NumThreads(), label.c_str());

  GORDER_LOG_INFO("calibrating machine speed...\n");
  const double calibration = bench::CalibrationSeconds();
  GORDER_LOG_INFO("calibration kernel: %.4fs\n", calibration);

  TablePrinter table({"Gen", "Mode", "Median s", "Min s", "MEdges/s",
                      "StreamHash", "Final m", "RSS MB"});
  std::vector<GenResult> results;
  for (const auto& spec : specs) {
    GORDER_OBS_SPAN(span, "gen:" + spec.name);
    GenResult r;
    r.dataset = spec.name;
    r.method = "gen-" + mode;
    r.nodes = spec.num_nodes;
    r.attempts = spec.attempts;
    std::vector<double> times;
    for (int rep = 0; rep < opt.repeats; ++rep) {
      StreamFingerprint fp;
      Timer timer;
      IoResult io = IoResult::Ok();
      if (mode == "count") {
        io = spec.stream([&](const Edge* e, std::size_t count) {
          fp.Mix(e, count);
          return IoResult::Ok();
        });
      } else {
        const std::string pack_path =
            !pack_out.empty()
                ? pack_out
                : (std::filesystem::temp_directory_path() /
                   ("gorder_perf_gen_" + spec.name + ".gpack"))
                      .string();
        extmem::ExtBuildStats stats;
        io = extmem::BuildPackFromEdgeStream(
            [&](const EdgeSink& builder_sink) {
              return spec.stream([&](const Edge* e, std::size_t count) {
                fp.Mix(e, count);
                return builder_sink(e, count);
              });
            },
            spec.num_nodes, pack_path, ext_options, &stats);
        r.edges_final = stats.edges_final;
        if (pack_out.empty()) {
          std::error_code ec;
          std::filesystem::remove(pack_path, ec);
        }
      }
      if (!io.ok) {
        std::fprintf(stderr, "perf_gen: %s: %s\n", spec.name.c_str(),
                     io.error.c_str());
        return 1;
      }
      times.push_back(timer.Seconds());
      if (rep == 0) {
        r.stream_fnv1a = fp.hash;
      } else if (r.stream_fnv1a != fp.hash) {
        // Same process, same params: a fingerprint change across repeats
        // means the generator is not a pure function of its seed.
        std::fprintf(stderr, "perf_gen: %s: stream fingerprint unstable "
                             "across repeats\n",
                     spec.name.c_str());
        return 1;
      }
      GORDER_CHECK(fp.edges <= spec.attempts);
    }
    std::sort(times.begin(), times.end());
    r.seconds_median = times[times.size() / 2];
    r.seconds_min = times.front();
    r.peak_rss_mb = PeakRssMb();
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(r.stream_fnv1a));
    table.AddRow(
        {spec.name, mode, TablePrinter::Num(r.seconds_median, 3),
         TablePrinter::Num(r.seconds_min, 3),
         TablePrinter::Num(static_cast<double>(r.attempts) /
                               std::max(r.seconds_median, 1e-9) / 1e6,
                           2),
         hex,
         mode == "pack"
             ? TablePrinter::Count(static_cast<double>(r.edges_final))
             : std::string("-"),
         TablePrinter::Num(r.peak_rss_mb, 1)});
    results.push_back(std::move(r));
    GORDER_LOG_INFO("  %s done (%.3fs median)\n", spec.name.c_str(),
                    results.back().seconds_median);
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
    WriteBenchJson(bench_json, label, opt, gen_scale, edge_factor,
                   chunked.chunk_edges, calibration, results);
  }
  return 0;
}
