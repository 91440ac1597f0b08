// Stage "ingest": a huge-tier R-MAT stream generated at all usable CPUs
// is fed through the external pack builder with a memory budget below
// the edge list, so runs spill and merge, and the pack is verified.
// Repeated in rounds for the stage's share of the run.

#include <cstdio>
#include <filesystem>

#include "common.h"
#include "extmem/ext_csr.h"
#include "gen/datasets.h"
#include "store/gpack.h"
#include "util/parallel.h"

namespace perfbench {

namespace {

constexpr int kMinRounds = 5;

struct IngestRound {
  double wall_s = 0;
  double stream_s = 0;
  double sink_s = 0;
  double finish_s = 0;
  double verify_s = 0;
  std::uint64_t attempts = 0;
  std::uint64_t fingerprint = 0;
  gorder::extmem::ExtBuildStats stats;
};

bool IngestOnce(Run* run, const std::string& pack, IngestRound* out) {
  using namespace gorder;
  extmem::ExtmemOptions options;
  options.mem_budget_bytes =
      static_cast<std::uint64_t>(run->plan.ingest_budget_mb * (1 << 20));
  extmem::ExtPackBuilder builder(options);
  Stopwatch wall;
  IoResult r = builder.Begin(pack);
  if (!run->Check(r.ok, "ingest: Begin: " + r.error)) return false;
  NodeId num_nodes = 0;
  bool reserved = false;
  {
    PB_SPAN(span, "gen.stream");
    Stopwatch stream;
    r = gen::StreamDataset(
        "rmat-huge", run->plan.ingest_scale, run->seed, gen::ChunkedOptions{},
        [&](const Edge* edges, std::size_t count) {
          PB_SPAN(sink_span, "extmem.add_batch");
          Stopwatch sink;
          if (!reserved) {
            builder.ReserveNodes(num_nodes);
            reserved = true;
          }
          out->attempts += count;
          IoResult added = builder.AddBatch(edges, count);
          out->sink_s += sink.Seconds();
          return added;
        },
        &num_nodes);
    out->stream_s = stream.Seconds();
  }
  if (!run->Check(r.ok, "ingest: stream: " + r.error)) return false;
  {
    PB_SPAN(span, "extmem.finish");
    Stopwatch finish;
    r = builder.Finish();
    out->finish_s = finish.Seconds();
  }
  if (!run->Check(r.ok, "ingest: Finish: " + r.error)) return false;
  {
    PB_SPAN(span, "store.verify");
    Stopwatch verify;
    r = store::VerifyPack(pack);
    out->verify_s = verify.Seconds();
  }
  out->wall_s = wall.Seconds();
  if (!run->Check(r.ok, "ingest: VerifyPack: " + r.error)) return false;
  out->stats = builder.stats();
  run->Check(out->stats.edges_ingested == out->attempts,
             "ingest: builder saw every generated edge");
  store::GpackInfo info;
  r = store::ReadPackInfo(pack, &info);
  if (!run->Check(r.ok && info.num_edges == out->stats.edges_final,
                  "ingest: pack header edge count")) {
    return false;
  }
  out->fingerprint = info.fingerprint;
  return true;
}

}  // namespace

void RunIngest(Run* run) {
  gorder::SetNumThreads(run->usable_cpus);
  const std::string pack = run->Path("ingest.gpack");
  // Ingest runs first in a fresh process, so without the reset the peak
  // is still the ingest's plus start-up.
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "ingest: /proc/self/clear_refs refused the reset\n");
  }
  std::vector<double> untraced_s, traced_s, wait_s, sink_s, finish_s,
      verify_s;
  IngestRound first;
  Stopwatch stage;
  for (int i = 0; i < kMinRounds ||
                  stage.Seconds() < run->plan.ingest_share * run->seconds;
       ++i) {
    // The gap between traced and untraced rounds is the tracing
    // overhead.
    const bool traced = run->trace && !UntracedRound(*run, i);
    if (run->trace) SetTracing(traced);
    Stopwatch round_wall;
    IngestRound round;
    bool ok = false;
    {
      PB_SPAN(span, "bench.ingest_round");
      ok = IngestOnce(run, pack, &round);
    }
    std::filesystem::remove(pack);
    if (run->trace && !traced) run->untraced_s += round_wall.Seconds();
    if (!ok) break;
    if (i == 0) {
      first = round;
    } else {
      run->Check(round.fingerprint == first.fingerprint &&
                     round.attempts == first.attempts,
                 "ingest: rounds produce the same pack");
    }
    (traced ? traced_s : untraced_s).push_back(round.wall_s);
    wait_s.push_back(round.stream_s - round.sink_s);
    sink_s.push_back(round.sink_s);
    finish_s.push_back(round.finish_s);
    verify_s.push_back(round.verify_s);
  }
  if (run->trace) SetTracing(true);
  const double peak_mb = PeakRssMb();
  const std::vector<double>& timed = untraced_s.empty() ? traced_s : untraced_s;
  if (timed.empty()) return;
  // The rounds run at every usable CPU, so the host stealing any one of
  // them stalls the round. Steal only ever adds time, so the throughput
  // comes from a fast round (the 20th percentile of round times), which
  // estimates the uncontended value.
  run->Set("ingest_medges_per_s",
           static_cast<double>(first.attempts) / Quantile(timed, 0.2) / 1e6,
           "Medges/s");
  run->Set("ingest_peak_rss_mb", peak_mb, "MB");
  run->Set("gen.wait_s", Median(wait_s), "s");
  run->Set("extmem.sink_busy_s", Median(sink_s), "s");
  run->Set("extmem.finish_s", Median(finish_s), "s");
  run->Set("store.verify_s", Median(verify_s), "s");
  run->Set("extmem.runs", static_cast<double>(first.stats.runs_written),
           "count");
  run->Set("extmem.merge_passes",
           static_cast<double>(first.stats.merge_passes), "count");
  run->Set("extmem.scratch_mb",
           static_cast<double>(first.stats.run_bytes) / (1 << 20), "MB");
  run->Set("extmem.dedup_ratio",
           static_cast<double>(first.stats.edges_final) /
               static_cast<double>(first.stats.edges_ingested),
           "ratio");
  run->Set("extmem.budget_mb", run->plan.ingest_budget_mb, "MB");
  run->Set("extmem.edge_attempts", static_cast<double>(first.attempts),
           "count");
  if (!traced_s.empty() && !untraced_s.empty()) {
    run->Set("obs.ingest_overhead_frac",
             Median(traced_s) / Median(untraced_s) - 1, "ratio");
  }
}

}  // namespace perfbench
