// Stage "serve": an in-process serve::Server (2 serve threads) on the
// serve graph, on a unix socket, driven by an open-loop Poisson client
// over 2 connections with the loadgen_serve opcode mix, while a third
// connection swaps the served pack between the Original and Gorder
// layouts every plan.swap_period_s (kSwapPack). Nominal-rate windows give
// the latency metrics; closed-loop saturating parts give the sustained
// capacity and the CPU cost per request. Sampled replies are checked
// against direct library calls on the layout of the epoch each reply
// carries.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "algo/algorithms.h"
#include "common.h"
#include "obs/json.h"
#include "order/ordering.h"
#include "serve/client.h"
#include "serve/server.h"
#include "store/gpack.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using gorder::Edge;
using gorder::Graph;
using gorder::NodeId;
using gorder::serve::Status;

// The loadgen_serve mix, in percent: neighbors 55, degree 20, bfs 10,
// sp 10, pagerank_topk 4, order 1.
enum Op { kNeighbors, kDegree, kBfs, kSp, kPageRankTopK, kOrder, kNumOps };
constexpr std::array<const char*, kNumOps> kOpNames = {
    "neighbors", "degree", "bfs", "sp", "pagerank_topk", "order"};
// Open-loop load at the nominal rate, in windows. After every second
// window a closed-loop part keeps both connections busy; its completion
// rate is the sustained capacity.
constexpr double kNominalQps = 500;
constexpr int kNominalWindows = 10;
// The order statistic of the per-window figures that RunServe reports.
constexpr double kWindowQuantile = 0.2;
constexpr std::uint32_t kTopK = 8;
constexpr std::uint32_t kPageRankIterations = 5;
// Last stretch before a scheduled send that the client spins instead of
// sleeping.
constexpr double kSpinS = 200e-6;
// One request in kVerifyEvery keeps its reply for the correctness check.
constexpr std::uint64_t kVerifyEvery = 16;

Op DrawOp(gorder::Rng& rng) {
  const std::uint64_t die = rng.Uniform(100);
  if (die < 55) return kNeighbors;
  if (die < 75) return kDegree;
  if (die < 85) return kBfs;
  if (die < 95) return kSp;
  if (die < 99) return kPageRankTopK;
  return kOrder;
}

/// A tiny fixed edge list for the kOrder trickle, as in loadgen_serve.
const std::vector<Edge>& UploadEdges() {
  static const std::vector<Edge> edges = [] {
    std::vector<Edge> e;
    for (NodeId v = 1; v < 64; ++v) e.push_back({v / 2, v});
    return e;
  }();
  return edges;
}

/// User plus system CPU time of the whole process (server, client and
/// swapper threads).
double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// The server listens on a unix socket named relative to the working
/// directory (the run's work directory), which keeps the path short.
gorder::util::NetAddress ServeAddress() {
  gorder::util::NetAddress address;
  address.is_unix = true;
  address.path = "serve.sock";
  return address;
}

/// Reply fields compared against the direct library call.
struct Digest {
  std::vector<std::uint64_t> words;
  std::vector<double> reals;
};

struct Sample {
  Op op = kNeighbors;
  NodeId node = 0;
  double send_s = 0;      // since the phase start
  double done_s = 0;      // since the phase start
  double latency_ms = 0;  // from the scheduled send time
  double late_ms = 0;     // actual send minus scheduled send
  Status status = Status::kInternal;
  std::uint64_t epoch = 0;
  bool verify = false;
  Digest digest;
};

Sample Issue(gorder::serve::Client& client, Op op, NodeId node) {
  Sample s;
  s.op = op;
  s.node = node;
  Digest& d = s.digest;
  gorder::serve::Reply reply;
  switch (op) {
    case kNeighbors: {
      auto r = client.Neighbors(node);
      d.words.assign(r.neighbors.begin(), r.neighbors.end());
      reply = r;
      break;
    }
    case kDegree: {
      auto r = client.Degree(node);
      d.words = {r.out_degree, r.in_degree};
      reply = r;
      break;
    }
    case kBfs: {
      auto r = client.Bfs(node);
      d.words = {r.num_reached, r.sum_levels, r.level_hash};
      reply = r;
      break;
    }
    case kSp: {
      auto r = client.Sp(node);
      d.words = {r.num_reached, r.max_dist, r.num_rounds, r.dist_hash};
      reply = r;
      break;
    }
    case kPageRankTopK: {
      auto r = client.PageRankTopK(kTopK, kPageRankIterations);
      d.reals.push_back(r.total_mass);
      for (const auto& [v, rank] : r.top) {
        d.words.push_back(v);
        d.reals.push_back(rank);
      }
      reply = r;
      break;
    }
    case kOrder: {
      auto r = client.Order("BOBA", 42, 64, UploadEdges());
      d.words.assign(r.perm.begin(), r.perm.end());
      reply = r;
      break;
    }
    case kNumOps:
      break;
  }
  s.status = reply.status;
  s.epoch = reply.epoch;
  return s;
}

/// The same answer computed by the library on `g`.
Digest Expected(const Graph& g, Op op, NodeId node) {
  using namespace gorder;
  Digest d;
  switch (op) {
    case kNeighbors: {
      auto neigh = g.OutNeighbors(node);
      d.words.assign(neigh.begin(), neigh.end());
      break;
    }
    case kDegree:
      d.words = {g.OutDegree(node), g.InDegree(node)};
      break;
    case kBfs: {
      algo::BfsResult r = algo::Bfs(g, node);
      d.words = {r.num_reached, r.sum_levels, serve::HashVector64(r.level)};
      break;
    }
    case kSp: {
      algo::SpResult r = algo::Sp(g, node);
      d.words = {r.num_reached, r.max_dist, r.num_rounds,
                 serve::HashVector64(r.dist)};
      break;
    }
    case kPageRankTopK: {
      algo::PageRankResult r =
          algo::PageRank(g, static_cast<int>(kPageRankIterations));
      std::vector<NodeId> idx(g.NumNodes());
      for (NodeId v = 0; v < g.NumNodes(); ++v) idx[v] = v;
      const NodeId k = std::min<NodeId>(kTopK, g.NumNodes());
      std::partial_sort(idx.begin(), idx.begin() + k, idx.end(),
                        [&r](NodeId a, NodeId b) {
                          if (r.rank[a] != r.rank[b]) {
                            return r.rank[a] > r.rank[b];
                          }
                          return a < b;
                        });
      d.reals.push_back(r.total_mass);
      for (NodeId i = 0; i < k; ++i) {
        d.words.push_back(idx[i]);
        d.reals.push_back(r.rank[idx[i]]);
      }
      break;
    }
    case kOrder: {
      Graph uploaded = Graph::FromEdges(64, UploadEdges());
      order::OrderingParams params;
      params.seed = 42;
      auto perm = order::ComputeOrdering(uploaded, order::Method::kBoba, params);
      d.words.assign(perm.begin(), perm.end());
      break;
    }
    case kNumOps:
      break;
  }
  return d;
}

/// One connection's load for one phase, blocking round trips. With
/// `qps` > 0 it is open loop: Poisson arrivals at `qps`, latency from the
/// scheduled send, and sending stops `grace_s` after the phase deadline;
/// requests scheduled but not sent by then are counted in `*unsent` (they
/// miss any latency limit). With `qps` == 0 it is closed loop: each
/// request goes out when the previous reply is in, until the deadline.
void Drive(gorder::serve::Client* client, double qps, double seconds,
           std::chrono::steady_clock::time_point start, std::uint64_t seed,
           NodeId num_nodes, std::uint64_t* counter, std::vector<Sample>* out,
           std::uint64_t* unsent) {
  using Clock = std::chrono::steady_clock;
  gorder::Rng rng(seed);
  const bool open_loop = qps > 0;
  auto gap = [&] {
    double u = rng.UniformDouble();
    if (u >= 1.0) u = 0.999999;
    return -std::log1p(-u) / qps;
  };
  auto since_start = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  const double grace_s = 0.5;
  double scheduled = open_loop ? gap() : since_start();
  while (scheduled < seconds) {
    double now = since_start();
    if (open_loop && now > seconds + grace_s) {
      // Remaining arrivals of this phase were never sent.
      while (scheduled < seconds) {
        ++*unsent;
        scheduled += gap();
      }
      break;
    }
    // Sleep to just before the scheduled send, then spin the rest, so
    // the send time does not depend on how fast the thread wakes.
    if (scheduled - now > kSpinS) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(scheduled - now - kSpinS));
    }
    while ((now = since_start()) < scheduled) {
    }
    const Op op = DrawOp(rng);
    const auto node = static_cast<NodeId>(rng.Uniform(num_nodes));
    Sample s = Issue(*client, op, node);
    s.send_s = now;
    s.done_s = since_start();
    s.latency_ms = (s.done_s - scheduled) * 1e3;
    s.late_ms = std::max(0.0, now - scheduled) * 1e3;
    s.verify = (*counter)++ % kVerifyEvery == 0 || op == kOrder;
    if (!s.verify) s.digest = Digest();
    out->push_back(std::move(s));
    scheduled = open_loop ? scheduled + gap() : s.done_s;
  }
}

struct Phase {
  std::vector<Sample> samples;
  std::uint64_t unsent = 0;
  double wall_s = 0;
  double in_flight_s = 0;  // wall time with a request on either connection
};

/// Length of the union of the samples' [send, done] intervals.
double InFlightSeconds(std::vector<Sample> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.send_s < b.send_s; });
  double total = 0, begin = 0, end = -1;
  for (const Sample& s : samples) {
    if (s.send_s > end) {
      total += std::max(0.0, end - begin);
      begin = s.send_s;
    }
    end = std::max(end, s.done_s);
  }
  return total + std::max(0.0, end - begin);
}

/// Swaps the served pack between the two layouts until stopped; records
/// which layout each epoch serves and the swap round-trip times.
class Swapper {
 public:
  Swapper(gorder::serve::Client* client, std::array<std::string, 2> packs,
          double period_s)
      : client_(client), packs_(std::move(packs)), period_s_(period_s) {
    layout_of_epoch_[1] = 0;  // the server starts on the Original layout
    thread_ = std::thread([this] { Loop(); });
  }
  ~Swapper() { Stop(); }
  Swapper(const Swapper&) = delete;
  Swapper& operator=(const Swapper&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  /// Valid after Stop().
  const std::map<std::uint64_t, int>& layout_of_epoch() const {
    return layout_of_epoch_;
  }
  const std::vector<double>& swap_ms() const { return swap_ms_; }
  std::uint64_t failures() const { return failures_; }

 private:
  void Loop() {
    int next = 1;
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::duration<double>(period_s_),
                         [this] { return stop_; })) {
      lock.unlock();
      Stopwatch sw;
      gorder::serve::Reply reply = client_->SwapPack(packs_[next]);
      const double ms = sw.Seconds() * 1e3;
      lock.lock();
      if (reply.ok()) {
        layout_of_epoch_[reply.epoch] = next;
        swap_ms_.push_back(ms);
        next = 1 - next;
      } else {
        ++failures_;
        std::fprintf(stderr, "serve: swap failed: %s\n", reply.error.c_str());
      }
    }
  }

  gorder::serve::Client* client_;
  std::array<std::string, 2> packs_;
  double period_s_;
  std::mutex mu_;  // guards everything below
  std::condition_variable cv_;
  bool stop_ = false;
  std::map<std::uint64_t, int> layout_of_epoch_;
  std::vector<double> swap_ms_;
  std::uint64_t failures_ = 0;
  std::thread thread_;  // last: starts after the members it uses
};

/// Both connections drive one phase at `qps` in total (0 = closed loop).
Phase RunPhase(std::array<gorder::serve::Client, 2>& clients, double qps,
               double seconds, std::uint64_t seed, NodeId num_nodes) {
  std::array<Phase, 2> parts;
  std::array<std::uint64_t, 2> counters{};
  Stopwatch wall;
  const auto start = std::chrono::steady_clock::now();
  {
    std::array<std::thread, 2> threads;
    for (int c = 0; c < 2; ++c) {
      threads[c] = std::thread(Drive, &clients[c], qps / 2, seconds, start,
                               seed * 31 + static_cast<std::uint64_t>(c),
                               num_nodes, &counters[c], &parts[c].samples,
                               &parts[c].unsent);
    }
    for (auto& t : threads) t.join();
  }
  Phase phase = std::move(parts[0]);
  phase.samples.insert(phase.samples.end(), parts[1].samples.begin(),
                       parts[1].samples.end());
  phase.unsent += parts[1].unsent;
  phase.wall_s = wall.Seconds();
  phase.in_flight_s = InFlightSeconds(phase.samples);
  return phase;
}

/// Latency quantile where failed and unsent requests count as infinite.
double LatencyQuantile(const Phase& phase, double q) {
  std::vector<double> lat;
  for (const Sample& s : phase.samples) {
    lat.push_back(s.status == Status::kOk ? s.latency_ms : HUGE_VAL);
  }
  lat.insert(lat.end(), phase.unsent, HUGE_VAL);
  if (lat.empty()) return HUGE_VAL;
  std::sort(lat.begin(), lat.end());
  return lat[std::min(lat.size() - 1,
                      static_cast<std::size_t>(q * (lat.size() - 1) + 0.5))];
}

std::vector<double> Latencies(const Phase& phase, int op) {
  std::vector<double> lat;
  for (const Sample& s : phase.samples) {
    if (s.status == Status::kOk && (op < 0 || s.op == op)) {
      lat.push_back(s.latency_ms);
    }
  }
  return lat;
}

/// Server-side p50 of each opcode's 10 s window, read through kStats.
/// Called straight after the first nominal window, when the server has
/// seen that window's requests and pack swaps and nothing else.
void ReadServerWindows(Run* run, gorder::serve::Client& client) {
  gorder::serve::StatsReply stats = client.Stats();
  gorder::obs::JsonValue doc;
  std::string error;
  if (!run->Check(stats.ok() && gorder::obs::ParseJson(stats.json, &doc,
                                                       &error),
                  "serve: kStats reply parses: " + error)) {
    return;
  }
  const gorder::obs::JsonValue* windows = doc.Find("windows");
  for (const char* op : kOpNames) {
    const gorder::obs::JsonValue* w =
        windows ? windows->Find(std::string("serve.req_us.") + op) : nullptr;
    const gorder::obs::JsonValue* ten = w ? w->Find("10s") : nullptr;
    const gorder::obs::JsonValue* p50 = ten ? ten->Find("p50") : nullptr;
    run->Set(std::string("serve.") + op + ".server_p50_ms",
             p50 && p50->IsNumber() ? p50->num / 1e3 : 0, "ms");
  }
}

}  // namespace

void RunServe(Run* run) {
  using namespace gorder;
  SetNumThreads(1);  // serve threads run kernels serially
  const Plan& plan = run->plan;
  std::array<Graph, 2> layouts;
  const std::array<std::string, 2> packs = {
      run->Path("serve_original.gpack"), run->Path("serve_gorder.gpack")};
  std::unique_ptr<serve::Server> server;
  std::array<serve::Client, 2> clients;
  serve::Client admin;
  NodeId num_nodes = 0;
  {
    PB_SPAN(stage, "bench.serve_start");
    for (int l = 0; l < 2; ++l) {
      PB_SPAN(span, "store.load");
      IoResult r = store::LoadPack(packs[l], &layouts[l]);
      if (!run->Check(r.ok, "serve: LoadPack: " + r.error)) return;
    }
    Graph served;
    {
      PB_SPAN(span, "store.load");
      IoResult r = store::LoadPack(packs[0], &served);
      if (!run->Check(r.ok, "serve: LoadPack: " + r.error)) return;
    }
    num_nodes = served.NumNodes();
    run->Set("serve.graph_edges", static_cast<double>(served.NumEdges()),
             "count");
    PB_SPAN(span, "serve.start");
    serve::ServerOptions options;
    options.listen = ServeAddress();
    options.serve_threads = 2;
    server = std::make_unique<serve::Server>(std::move(served), options);
    IoResult r = server->Start();
    if (!run->Check(r.ok, "serve: start: " + r.error)) return;
    const util::NetAddress target = options.listen;
    for (auto* c : {&clients[0], &clients[1], &admin}) {
      r = c->Connect(target, 30.0);
      if (!run->Check(r.ok, "serve: connect: " + r.error)) return;
    }
  }

  // Nominal-rate windows, with a saturating part after every second one,
  // so both sample the whole stage. In the traced run one window in three
  // is untraced. A traced phase sits in a bench span: the client's
  // sleep and pacing are the benchmark's, and the part of the phase with
  // a request in flight is credited to serve (Run::serve_in_flight_s).
  const double window_s = plan.nominal_share * run->seconds / kNominalWindows;
  const double saturate_s =
      plan.saturate_share * run->seconds / (kNominalWindows / 2);
  Swapper swapper(&admin, packs, plan.swap_period_s);
  std::vector<Phase> windows, untraced_windows, saturated;
  std::vector<double> saturated_qps, cpu_us_per_request;
  auto client_phase = [&](double qps, double seconds, std::uint64_t seed) {
    PB_SPAN(span, "bench.serve_client");
    Phase phase = RunPhase(clients, qps, seconds, seed, num_nodes);
    run->serve_in_flight_s += phase.in_flight_s;
    run->serve_idle_s += phase.wall_s - phase.in_flight_s;
    return phase;
  };
  for (int w = 0; w < kNominalWindows; ++w) {
    const std::uint64_t seed = (run->seed << 8) + static_cast<std::uint64_t>(w);
    if (UntracedRound(*run, w)) {
      Stopwatch untraced;
      SetTracing(false);
      untraced_windows.push_back(
          RunPhase(clients, kNominalQps, window_s, seed, num_nodes));
      SetTracing(true);
      run->untraced_s += untraced.Seconds();
    } else {
      windows.push_back(client_phase(kNominalQps, window_s, seed));
      if (run->trace && windows.size() == 1) {
        PB_SPAN(span, "serve.stats");
        ReadServerWindows(run, clients[0]);
      }
    }
    if (w % 2 == 1) {
      const double cpu_before_s = ProcessCpuSeconds();
      saturated.push_back(client_phase(0, saturate_s, seed + 64));
      const auto completed =
          static_cast<double>(Latencies(saturated.back(), -1).size());
      saturated_qps.push_back(completed / saturated.back().wall_s);
      cpu_us_per_request.push_back(
          (ProcessCpuSeconds() - cpu_before_s) * 1e6 / completed);
    }
  }
  Phase nominal;
  for (const Phase& p : windows) {
    nominal.samples.insert(nominal.samples.end(), p.samples.begin(),
                           p.samples.end());
    nominal.unsent += p.unsent;
  }
  PB_SPAN(stage, "bench.serve");
  swapper.Stop();
  {
    PB_SPAN(span, "serve.stop");
    server->Stop();
  }
  run->Check(swapper.failures() == 0, "serve: every pack swap succeeds");
  run->Check(swapper.layout_of_epoch().size() > 1,
             "serve: the served pack was swapped");

  // Outcomes: every request counts; overloaded and error replies fail.
  std::uint64_t sent = 0, overloaded = 0, errors = 0, unsent = 0;
  std::vector<const Phase*> all;
  for (const auto* group : {&windows, &untraced_windows, &saturated}) {
    for (const Phase& p : *group) all.push_back(&p);
  }
  for (const Phase* p : all) {
    unsent += p->unsent;
    for (const Sample& s : p->samples) {
      ++sent;
      if (s.status == Status::kOverloaded) ++overloaded;
      else if (s.status != Status::kOk) ++errors;
    }
  }
  run->CheckMany(sent, overloaded + errors, "serve requests answered kOk");

  // Sampled replies against the library on the epoch's layout.
  std::uint64_t verified = 0, mismatched = 0;
  {
    PB_SPAN(span, "bench.serve_verify");
    const auto& epochs = swapper.layout_of_epoch();
    for (const Phase* p : all) {
      for (const Sample& s : p->samples) {
        if (!s.verify || s.status != Status::kOk) continue;
        ++verified;
        auto it = epochs.find(s.epoch);
        const bool ok =
            it != epochs.end() &&
            [&] {
              const Digest want = Expected(layouts[it->second], s.op, s.node);
              return want.words == s.digest.words &&
                     want.reals == s.digest.reals;
            }();
        if (!ok) ++mismatched;
      }
    }
  }
  run->CheckMany(verified, mismatched,
                 "sampled serve replies equal the library result");

  // Host contention (steal) only ever adds latency and removes
  // throughput, and it comes in bursts, so the window figures are low
  // order statistics across windows, which estimate the uncontended
  // value. Bursts lasting whole runs still move them, so the end-to-end
  // figure is the CPU cost per request, which stolen time does not
  // inflate.
  std::vector<double> window_p50, window_p99, untraced_p50;
  for (const Phase& p : windows) {
    window_p50.push_back(LatencyQuantile(p, 0.5));
    window_p99.push_back(LatencyQuantile(p, 0.99));
  }
  for (const Phase& p : untraced_windows) {
    untraced_p50.push_back(LatencyQuantile(p, 0.5));
  }
  run->Set("serve_cpu_us_per_req",
           Quantile(cpu_us_per_request, kWindowQuantile), "us");
  run->Set("serve.window_p50_ms", Quantile(window_p50, kWindowQuantile), "ms");
  run->Set("serve.window_p99_ms", Quantile(window_p99, kWindowQuantile), "ms");
  run->Set("serve.max_qps", Quantile(saturated_qps, 1 - kWindowQuantile),
           "1/s");
  run->Set("serve.pooled_p50_ms", LatencyQuantile(nominal, 0.5), "ms");
  run->Set("serve.pooled_p99_ms", LatencyQuantile(nominal, 0.99), "ms");
  run->Set("serve.samples", static_cast<double>(nominal.samples.size()),
           "count");
  for (int op = 0; op < kNumOps; ++op) {
    const std::vector<double> op_lat = Latencies(nominal, op);
    run->Set(std::string("serve.") + kOpNames[op] + ".p50_ms",
             Quantile(op_lat, 0.5), "ms");
    run->Set(std::string("serve.") + kOpNames[op] + ".p99_ms",
             Quantile(op_lat, 0.99), "ms");
  }
  const char* layout_names[2] = {"original", "gorder"};
  for (int l = 0; l < 2; ++l) {
    std::vector<double> epoch_lat;
    for (const Sample& s : nominal.samples) {
      auto it = swapper.layout_of_epoch().find(s.epoch);
      if (s.status == Status::kOk && it != swapper.layout_of_epoch().end() &&
          it->second == l) {
        epoch_lat.push_back(s.latency_ms);
      }
    }
    run->Set(std::string("serve.") + layout_names[l] + "_epoch.p99_ms",
             Quantile(epoch_lat, 0.99), "ms");
  }
  std::vector<double> late;
  for (const Sample& s : nominal.samples) late.push_back(s.late_ms);
  run->Set("serve.late_ms", Quantile(late, 0.99), "ms");
  run->Set("serve.swap_ms", Median(swapper.swap_ms()), "ms");
  run->Set("serve.sent", static_cast<double>(sent), "count");
  run->Set("serve.overloaded", static_cast<double>(overloaded), "count");
  run->Set("serve.errors", static_cast<double>(errors), "count");
  run->Set("serve.unsent", static_cast<double>(unsent), "count");
  if (run->trace) {
    run->Set("serve.server_busy_s", SpanSeconds("serve:req:"), "s");
    run->Set("obs.serve_overhead_frac",
             Median(window_p50) / Median(untraced_p50) - 1, "ratio");
  }
}

}  // namespace perfbench
