// perfbench — the repository benchmark. One process runs one workload
// through the whole chain: set-up (generate and pack the inputs, start
// the server), ingest (generator -> out-of-core pack -> verify), offline
// (load -> order -> relabel -> write -> kernel rounds) and serve (open-loop
// queries while the served layout swaps). The workload decides how the
// run's seconds are shared between the stages and how large each input
// is. run.py builds this binary, runs it and formats its last line.
//
// Usage:
//   perfbench --workload=ingest|offline-web|serve-swap --seed=N
//             --seconds=S --trace=0|1 --work-dir=DIR [--smoke]
//
// Prints the environment as a JSON line, then, as the last line, a JSON
// object {"correct","attempted","failed","metrics"} holding every
// metric measured, each as {"value","unit"}. With --trace=1 span capture
// is on and the metrics include per-layer self times.

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>

#include "common.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "util/flags.h"
#include "util/logging.h"

namespace perfbench {
namespace {

bool MakePlan(const std::string& workload, bool smoke, Plan* plan) {
  plan->name = workload;
  // Each workload gives most of its seconds to the stage it exists for;
  // perfbench/README.md reports the layer shares this gives.
  if (workload == "ingest") {
    plan->ingest_scale = 1.0 / 512;
    plan->ingest_budget_mb = 4;
    plan->web_scale = 2.0;
    plan->ingest_share = 0.7;
    plan->kernel_share = 0.05;
    plan->nominal_share = 0.05;
    plan->saturate_share = 0.1;
  } else if (workload == "offline-web") {
    plan->ingest_scale = 1.0 / 1024;
    plan->ingest_budget_mb = 2;
    plan->web_scale = 4.0;
    plan->ingest_share = 0.05;
    plan->kernel_share = 0.55;
    plan->nominal_share = 0.1;
    plan->saturate_share = 0.125;
  } else if (workload == "serve-swap") {
    plan->ingest_scale = 1.0 / 1024;
    plan->ingest_budget_mb = 2;
    plan->web_scale = 2.0;
    plan->ingest_share = 0.05;
    plan->kernel_share = 0.05;
    plan->nominal_share = 0.3;
    plan->saturate_share = 0.45;
  } else {
    return false;
  }
  if (smoke) {
    plan->ingest_scale = 1.0 / 16384;
    plan->ingest_budget_mb = 0.125;
    plan->web_scale = 0.05;
    plan->serve_scale = 0.05;
    plan->setup_repeats = 1;
    plan->swap_period_s = 0.05;
  }
  return true;
}

/// Per-layer self times of the traced run and the share of it they
/// account for. The share is taken over the run's wall time less the
/// rounds and windows run untraced; of that, everything outside a span
/// is `bench.unspanned_s`, and the benchmark's own spans (glue, checks,
/// the serve client's pacing) are `bench.self_s`.
void ReportLayerTimes(Run* run, double wall_s) {
  double spanned_s = 0;
  std::map<std::string, double> self = LayerSelfTimes(&spanned_s);
  // The traced serve load phases sit in bench spans; the time they had a
  // request in flight is serve's.
  self["serve"] += run->serve_in_flight_s;
  self["bench"] -= run->serve_in_flight_s;
  double layers_s = 0;
  for (const char* layer : {"gen", "extmem", "store", "graph", "order",
                            "algo", "cachesim", "serve", "bench"}) {
    const double layer_s = self[layer];
    run->Set(std::string(layer) + ".self_s", layer_s, "s");
    if (std::string(layer) != "bench") layers_s += layer_s;
  }
  const double traced_s = wall_s - run->untraced_s;
  run->Set("bench.wall_s", wall_s, "s");
  run->Set("bench.untraced_s", run->untraced_s, "s");
  run->Set("bench.unspanned_s", traced_s - spanned_s, "s");
  run->Set("bench.idle_s", run->serve_idle_s, "s");
  run->Set("bench.attributed_frac", layers_s / traced_s, "ratio");
}

void PrintResult(const Run& run) {
  gorder::obs::JsonWriter json;
  json.BeginObject();
  json.KV("correct", run.failed == 0 && run.attempted > 0);
  json.KV("attempted", static_cast<std::uint64_t>(run.attempted));
  json.KV("failed", static_cast<std::uint64_t>(run.failed));
  json.Key("metrics");
  json.BeginObject();
  for (const auto& [name, metric] : run.metrics) {
    json.Key(name);
    json.BeginObject();
    json.KV("value", metric.value);
    json.KV("unit", metric.unit);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
}

int Main(int argc, char** argv) {
  gorder::Flags flags(argc, argv);
  Run run;
  const std::string workload = flags.GetString("workload", "");
  const bool smoke = flags.GetBool("smoke", false);
  if (!MakePlan(workload, smoke, &run.plan)) {
    std::fprintf(stderr,
                 "perfbench: --workload must be ingest, offline-web or "
                 "serve-swap (got '%s')\n",
                 workload.c_str());
    return 2;
  }
  run.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  run.seconds = flags.GetDouble("seconds", 10);
  run.trace = flags.GetInt("trace", 0) != 0;
  run.work_dir = flags.GetString("work-dir", "");
  if (run.work_dir.empty() || run.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --work-dir and --seconds > 0 needed\n");
    return 2;
  }
  gorder::SetLogLevel(gorder::LogLevel::kQuiet);
  std::filesystem::create_directories(run.work_dir);
  // Sockets are named relative to the work directory.
  std::filesystem::current_path(run.work_dir);
  if (run.trace) SetTracing(true);

  ReportEnvironment(&run);
  Stopwatch wall;
  RunIngest(&run);
  RunSetup(&run);
  RunOffline(&run);
  RunServe(&run);
  if (run.trace) ReportLayerTimes(&run, wall.Seconds());
  std::filesystem::remove_all(run.work_dir);
  PrintResult(run);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
