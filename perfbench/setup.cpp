// Set-up: generate and pack the workload's inputs and start the server.
//   - the offline stage's web graph (sdarc at plan.web_scale) -> web.gpack
//   - the serve graph (sdarc at plan.serve_scale) in its Original and
//     Gorder layouts -> serve_original.gpack, serve_gorder.gpack
//   - a serve::Server started on the Original pack and stopped again.
// Repeated plan.setup_repeats times; setup_s is the median.


#include "common.h"
#include "gen/datasets.h"
#include "order/ordering.h"
#include "serve/server.h"
#include "store/gpack.h"
#include "util/parallel.h"

namespace perfbench {

namespace {

void WritePackChecked(Run* run, const std::string& path,
                      const gorder::Graph& graph) {
  PB_SPAN(span, "store.write");
  gorder::IoResult r = gorder::store::WritePack(path, graph);
  run->Check(r.ok, "setup: WritePack " + path + ": " + r.error);
}

void SetupOnce(Run* run) {
  using namespace gorder;
  const Plan& plan = run->plan;
  Graph web;
  {
    PB_SPAN(span, "gen.make_dataset");
    web = gen::MakeDataset("sdarc", plan.web_scale, run->seed);
  }
  WritePackChecked(run, run->Path("web.gpack"), web);
  Graph original;
  {
    PB_SPAN(span, "gen.make_dataset");
    original = gen::MakeDataset("sdarc", plan.serve_scale, run->seed);
  }
  std::vector<NodeId> perm;
  {
    PB_SPAN(span, "order.gorder");
    perm = order::ComputeOrdering(original, order::Method::kGorder);
  }
  Graph gorder_layout;
  {
    PB_SPAN(span, "graph.relabel");
    gorder_layout = original.Relabel(perm);
  }
  WritePackChecked(run, run->Path("serve_original.gpack"), original);
  WritePackChecked(run, run->Path("serve_gorder.gpack"), gorder_layout);

  Graph served;
  {
    PB_SPAN(span, "store.load");
    IoResult r = store::LoadPack(run->Path("serve_original.gpack"), &served);
    if (!run->Check(r.ok, "setup: LoadPack: " + r.error)) return;
  }
  PB_SPAN(span, "serve.start");
  serve::ServerOptions options;
  options.listen.is_unix = true;
  options.listen.path = "setup.sock";  // relative to the work directory
  serve::Server server(std::move(served), options);
  IoResult r = server.Start();
  run->Check(r.ok, "setup: server start: " + r.error);
  server.Stop();
}

}  // namespace

void RunSetup(Run* run) {
  gorder::SetNumThreads(run->usable_cpus);
  std::vector<double> times;
  for (int i = 0; i < run->plan.setup_repeats; ++i) {
    Stopwatch sw;
    {
      PB_SPAN(span, "bench.setup");
      SetupOnce(run);
    }
    times.push_back(sw.Seconds());
  }
  run->Set("setup_s", Median(times), "s");
}

}  // namespace perfbench
