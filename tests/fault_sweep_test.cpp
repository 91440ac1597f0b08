// One-fault-at-a-time sweep over the pack -> store -> load -> order ->
// bench -> serve pipeline (DESIGN.md §14). For every registered failpoint and
// every fault kind, exactly one fault is armed and the whole pipeline
// runs in a fresh directory; the sweep then asserts the degradation
// contract:
//
//   * every failure surfaces as a clean IoResult / false return with a
//     non-empty error message — never a crash, leak (ASan job) or abort;
//   * store faults degrade to cache misses: the graph handed to the
//     benchmark kernels and its PageRank result are bit-identical to the
//     fault-free baseline in every single run;
//   * any file present at a *final* artifact path is completely valid —
//     a reader can never observe a partial write — and no `*.tmp.*`
//     staging debris survives anywhere;
//   * the armed point actually fired (the injected fault was really
//     exercised, not skipped).
//
// The baseline pass doubles as the coverage assertion: a registered
// failpoint the pipeline never reaches means dead error-handling code
// (or a failpoint on an unreachable site) and fails the sweep.
//
// Set GORDER_FAULT_REPORT=<path> to dump cumulative per-point hit/fire
// counts after the sweep (the CI fault-injection job uploads this).

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/gorder_lib.h"
#include "test_util.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace gorder {
namespace {

namespace fs = std::filesystem;

#if defined(GORDER_FAILPOINTS_ENABLED)

constexpr const char* kDataset = "epinion";
constexpr double kScale = 0.05;
constexpr std::uint64_t kSeed = 7;

/// Everything one pipeline run produces. Steps are independent: a step
/// that fails records its error and the run carries on, exactly like the
/// narrated degradation paths in production code.
struct PipelineOutcome {
  bool wrote_edgelist = false, read_edgelist = false;
  bool wrote_binary = false, read_binary = false;
  bool copied_pack = false;
  bool saved_ordering = false, loaded_ordering = false;
  bool wrote_trace = false;
  bool ext_packed = false;          // extmem build committed a pack
  bool ext_ordered = false;         // ordering over the mapped pack ran
  // Failpoint hits counted before the extmem build started, so a spec
  // can aim a fault at a hit inside it.
  std::map<std::string, std::uint64_t> hits_before_ext;
  std::uint64_t ext_fp = 0;         // fingerprint of the extmem pack
  std::vector<NodeId> ext_perm;
  bool serve_started = false;       // daemon bound its socket
  bool serve_queried = false;       // ping+info+neighbors all answered
  bool serve_alive_after = false;   // fresh connection works at the end
  bool admin_scraped = false;       // /healthz answered 200 at the end
  std::uint64_t serve_nodes = 0;    // n reported by the daemon's kInfo
  std::uint64_t roundtrip_fp = 0;  // edge-list roundtrip fingerprint
  std::uint64_t binary_fp = 0;     // binary roundtrip fingerprint
  std::uint64_t cold_fp = 0;       // store.GetDataset, cold
  std::uint64_t warm_fp = 0;       // store.GetDataset, warm
  std::uint64_t copy_fp = 0;       // LoadPack(kCopy)
  std::vector<NodeId> perm;
  std::vector<NodeId> loaded_perm;
  double pr_mass = 0.0;
  std::vector<std::string> errors;  // every failure message, for the
                                    // clean-degradation assertion
};

order::OrderingParams Params() {
  order::OrderingParams params;
  params.seed = kSeed;
  return params;
}

/// Runs the whole pipeline in `dir`. Never throws, never aborts: every
/// fallible step degrades through its IoResult/bool surface.
PipelineOutcome RunPipeline(const std::string& dir) {
  PipelineOutcome out;
  auto note = [&](const IoResult& r) {
    if (!r.ok) out.errors.push_back(r.error);
    return r.ok;
  };
  const Graph base = gen::MakeDataset(kDataset, kScale, kSeed);

  // 1. Edge-list roundtrip (the legacy text loaders/writers).
  const std::string txt = dir + "/g.txt";
  out.wrote_edgelist = note(WriteEdgeList(txt, base));
  if (out.wrote_edgelist) {
    Graph g;
    out.read_edgelist = note(ReadEdgeList(txt, &g));
    if (out.read_edgelist) out.roundtrip_fp = store::GraphFingerprint(g);
  }

  // 2. Legacy binary roundtrip.
  const std::string bin = dir + "/g.bin";
  out.wrote_binary = note(WriteBinary(bin, base));
  if (out.wrote_binary) {
    Graph g;
    out.read_binary = note(ReadBinary(bin, &g));
    if (out.read_binary) out.binary_fp = store::GraphFingerprint(g);
  }

  // 3. Artifact store: cold pack write, warm zero-copy load. GetDataset
  // degrades internally (unusable pack -> regenerate, unwritable pack ->
  // run unpacked), so both graphs must always be correct.
  store::Store store(dir + "/store");
  const Graph cold = store.GetDataset(kDataset, kScale, kSeed);
  out.cold_fp = store::GraphFingerprint(cold);
  const Graph warm = store.GetDataset(kDataset, kScale, kSeed);
  out.warm_fp = store::GraphFingerprint(warm);

  // 4. Deep-copy load of the pack, when one made it to disk.
  const std::string pack = store.PackPath(kDataset, kScale, kSeed);
  if (fs::exists(pack)) {
    Graph g;
    out.copied_pack = note(store::LoadPack(pack, &g, store::LoadMode::kCopy));
    if (out.copied_pack) out.copy_fp = store::GraphFingerprint(g);
  }

  // 5. Ordering: compute (pure CPU, no IO), cache, load back.
  const auto method = order::MethodFromName("Gorder");
  out.perm = order::ComputeOrdering(cold, method, Params());
  const std::uint64_t fp = store::GraphFingerprint(cold);
  out.saved_ordering =
      note(store.SaveOrdering(fp, method, Params(), out.perm, 0.01));
  store::Store::CachedOrdering cached;
  out.loaded_ordering =
      store.LoadOrdering(fp, method, Params(), cold.NumNodes(), &cached);
  if (out.loaded_ordering) out.loaded_perm = std::move(cached.perm);

  // 6. Benchmark kernel on the reordered graph.
  out.pr_mass = algo::PageRank(cold.Relabel(out.perm), 5).total_mass;

  // 7. Telemetry artifact writer.
  out.wrote_trace = obs::WriteChromeTrace(dir + "/trace.json");
  if (!out.wrote_trace) out.errors.push_back("WriteChromeTrace failed");

  // 8. Out-of-core pipeline (src/extmem): stream the text edge list
  // through the external sorter into a GpackWriter pack build, then order
  // the zero-copy mapped result. Tiny buffers and fan-in force run spills
  // and compaction merges, so this drives every extmem.* failpoint. A
  // fault may cost the pack (nothing at the final path) or the ordering —
  // never debris or a partial file.
  if (out.wrote_edgelist) {
    for (const auto& info : util::SnapshotFailpoints()) {
      out.hits_before_ext[info.name] = info.hits;
    }
    const std::string ext_pack = dir + "/ext.gpack";
    extmem::ExtmemOptions eopts;
    eopts.mem_budget_bytes = 1ull << 20;
    eopts.run_buffer_edges = 512;  // force several run spills
    eopts.merge_fanin = 4;         // and compaction merge passes
    extmem::ExtBuildStats stats;
    out.ext_packed =
        note(extmem::StreamEdgeListToPack(txt, ext_pack, eopts, &stats));
    if (out.ext_packed) {
      Graph g;
      if (note(store::LoadPack(ext_pack, &g, store::LoadMode::kCopy))) {
        out.ext_fp = store::GraphFingerprint(g);
      }
      Graph mapped;
      out.ext_ordered =
          note(store::LoadPack(ext_pack, &mapped, store::LoadMode::kMmap));
      if (out.ext_ordered) {
        out.ext_perm = order::ComputeOrdering(mapped, method, Params());
      }
    }
  }

  // 9. Ordering-as-a-service daemon (src/serve): bind, serve a few
  // queries in-process, then prove the daemon outlives the fault. This
  // is what drives the net.* failpoints (listen/accept/connect/read/
  // write): one injected syscall failure may cost one request or one
  // connection — never the server.
  {
    serve::ServerOptions sopts;
    sopts.listen.is_unix = true;
    sopts.listen.path = dir + "/gd.sock";
    sopts.serve_threads = 1;
    // Admin plane on an ephemeral TCP port: this is what drives the
    // net.admin.* failpoints (accept/read/write). An injected admin
    // fault may cost one scrape — never the daemon.
    sopts.admin_enabled = true;
    sopts.admin_listen.host = "127.0.0.1";
    sopts.admin_listen.port = 0;
    serve::Server server(cold.Clone(), sopts);
    out.serve_started = note(server.Start());
    if (out.serve_started) {
      auto note_reply = [&](const serve::Reply& reply) {
        if (!reply.ok()) out.errors.push_back(reply.error);
        return reply.ok();
      };
      serve::Client client;
      if (note(client.Connect(sopts.listen, 10.0))) {
        const bool ping_ok = note_reply(client.Ping());
        serve::InfoReply info = client.Info();
        const bool info_ok = note_reply(info);
        if (info_ok) out.serve_nodes = info.num_nodes;
        const bool neigh_ok = note_reply(client.Neighbors(0));
        out.serve_queried = ping_ok && info_ok && neigh_ok;
      }
      client.Close();
      // A fresh connection after the carnage: the armed fault has fired
      // by now (or never applied here), so this must always work.
      serve::Client fresh;
      IoResult fc = fresh.Connect(sopts.listen, 10.0);
      if (!fc.ok) out.errors.push_back(fc.error);
      out.serve_alive_after = fc.ok && fresh.Ping().ok();
      fresh.Close();
      // Admin scrape over plain HTTP/1.0. The single-shot armed fault
      // may eat the first attempt (dropped connection / short write);
      // the second must answer — admin faults never wedge the listener.
      auto scrape = [&]() {
        util::NetAddress addr;
        addr.host = "127.0.0.1";
        addr.port = server.AdminPort();
        util::Socket s;
        IoResult cr = util::ConnectSocket(addr, &s, 10.0);
        if (!cr.ok) {
          out.errors.push_back(cr.error);
          return false;
        }
        const std::string get = "GET /healthz HTTP/1.0\r\n\r\n";
        IoResult wr = util::WriteFull(s, get.data(), get.size());
        if (!wr.ok) {
          out.errors.push_back(wr.error);
          return false;
        }
        std::string resp;
        char buf[512];
        std::size_t got = 0;
        while (util::ReadSome(s, buf, sizeof buf, &got).ok && got > 0) {
          resp.append(buf, got);
        }
        if (resp.find(" 200 ") == std::string::npos) {
          out.errors.push_back("admin scrape got no 200: " + resp);
          return false;
        }
        return true;
      };
      out.admin_scraped = scrape() || scrape();
      server.Stop();
    }
  }
  return out;
}

/// Post-run validation: any file at a final path is completely valid and
/// bit-identical to the baseline artifact; no staging debris anywhere.
/// Must run with all failpoints disarmed.
void CheckArtifacts(const std::string& dir, const PipelineOutcome& baseline) {
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
        << "staging debris left behind: " << entry.path();
  }
  const std::string txt = dir + "/g.txt";
  if (fs::exists(txt)) {
    Graph g;
    IoResult r = ReadEdgeList(txt, &g);
    ASSERT_TRUE(r.ok) << "partial edge list at final path: " << r.error;
    EXPECT_EQ(store::GraphFingerprint(g), baseline.roundtrip_fp);
  }
  const std::string bin = dir + "/g.bin";
  if (fs::exists(bin)) {
    Graph g;
    IoResult r = ReadBinary(bin, &g);
    ASSERT_TRUE(r.ok) << "partial binary graph at final path: " << r.error;
    EXPECT_EQ(store::GraphFingerprint(g), baseline.binary_fp);
  }
  store::Store store(dir + "/store");
  const std::string pack = store.PackPath(kDataset, kScale, kSeed);
  if (fs::exists(pack)) {
    IoResult r = store::VerifyPack(pack);
    EXPECT_TRUE(r.ok) << "partial pack at final path: " << r.error;
  }
  bool have_gperm = false;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.path().extension() == ".gperm") have_gperm = true;
  }
  if (have_gperm) {
    // The only artifact this pipeline saves is keyed exactly like this;
    // if the file exists it must load back bit-identical.
    store::Store::CachedOrdering cached;
    ASSERT_TRUE(store.LoadOrdering(store::GraphFingerprint(gen::MakeDataset(
                                       kDataset, kScale, kSeed)),
                                   order::MethodFromName("Gorder"), Params(),
                                   static_cast<NodeId>(baseline.perm.size()),
                                   &cached))
        << "partial ordering artifact at final path";
    EXPECT_EQ(cached.perm, baseline.perm);
  }
  const std::string ext_pack = dir + "/ext.gpack";
  if (fs::exists(ext_pack)) {
    IoResult r = store::VerifyPack(ext_pack);
    EXPECT_TRUE(r.ok) << "partial extmem pack at final path: " << r.error;
  }
  const std::string trace = dir + "/trace.json";
  if (fs::exists(trace)) {
    std::ifstream in(trace);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    ASSERT_FALSE(contents.empty()) << "empty trace at final path";
    EXPECT_EQ(contents.front(), '{');
    EXPECT_EQ(contents.back(), '}');
  }
}

/// The invariants that hold in EVERY run, faulted or not.
void CheckInvariants(const PipelineOutcome& out,
                     const PipelineOutcome& baseline,
                     const std::string& context) {
  // The store is an accelerator, not a correctness dependency: whatever
  // fault is armed, GetDataset degrades to a miss and the benchmark
  // input stays bit-identical.
  EXPECT_EQ(out.cold_fp, baseline.cold_fp) << context;
  EXPECT_EQ(out.warm_fp, baseline.warm_fp) << context;
  EXPECT_EQ(out.perm, baseline.perm) << context;
  EXPECT_EQ(out.pr_mass, baseline.pr_mass) << context;
  // Steps that report success must have produced the baseline bits.
  if (out.read_edgelist) {
    EXPECT_EQ(out.roundtrip_fp, baseline.roundtrip_fp) << context;
  }
  if (out.read_binary) {
    EXPECT_EQ(out.binary_fp, baseline.binary_fp) << context;
  }
  if (out.copied_pack) {
    EXPECT_EQ(out.copy_fp, baseline.copy_fp) << context;
  }
  if (out.loaded_ordering) {
    EXPECT_EQ(out.loaded_perm, baseline.perm) << context;
  }
  // An extmem build that reported success must have produced the same
  // graph the text loader read, and an ordering over the mapped pack is
  // bit-identical to the in-memory ordering.
  if (out.ext_packed && out.ext_fp != 0) {
    EXPECT_EQ(out.ext_fp, baseline.ext_fp) << context;
  }
  if (out.ext_ordered) {
    EXPECT_EQ(out.ext_perm, baseline.perm) << context;
  }
  // A daemon that managed to bind must still be serving at the end of
  // the run, whatever single fault was injected along the way. Start()
  // fails outright when the admin listener cannot bind, so a started
  // daemon must also still answer scrapes (the pipeline retries once:
  // a single-shot admin fault may cost the first attempt, never both).
  if (out.serve_started) {
    EXPECT_TRUE(out.serve_alive_after) << context;
    EXPECT_TRUE(out.admin_scraped) << context;
  }
  if (out.serve_queried) {
    EXPECT_EQ(out.serve_nodes, baseline.serve_nodes) << context;
  }
  // Every failure surfaced with a message, not silently.
  for (const std::string& error : out.errors) {
    EXPECT_FALSE(error.empty()) << context << ": empty error message";
  }
}

class FaultSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetLogLevel(LogLevel::kQuiet);  // 100+ narrated runs otherwise
    util::DisarmAllFailpoints();
    util::ResetFailpointCounters();
  }
  void TearDown() override { util::DisarmAllFailpoints(); }

  std::string FreshDir(const std::string& tag) {
    std::string dir = root_ + "/" + tag;
    fs::create_directories(dir);
    return dir;
  }

  const ScopedTempDir tmp_;
  const std::string root_ = tmp_.path().string();
};

TEST_F(FaultSweepTest, BaselineCoversEveryRegisteredFailpoint) {
  const PipelineOutcome baseline = RunPipeline(FreshDir("baseline"));
  EXPECT_TRUE(baseline.errors.empty())
      << "fault-free pipeline failed: " << baseline.errors.front();
  EXPECT_TRUE(baseline.wrote_edgelist && baseline.read_edgelist);
  EXPECT_TRUE(baseline.wrote_binary && baseline.read_binary);
  EXPECT_TRUE(baseline.copied_pack);
  EXPECT_TRUE(baseline.saved_ordering && baseline.loaded_ordering);
  EXPECT_TRUE(baseline.wrote_trace);
  EXPECT_TRUE(baseline.ext_packed && baseline.ext_ordered);
  EXPECT_EQ(baseline.ext_fp, baseline.roundtrip_fp);
  EXPECT_EQ(baseline.ext_perm, baseline.perm);
  EXPECT_TRUE(baseline.serve_started && baseline.serve_queried &&
              baseline.serve_alive_after && baseline.admin_scraped);
  CheckArtifacts(root_ + "/baseline", baseline);

  // Coverage: a registered point the pipeline never reaches is dead
  // error-handling code — extend the pipeline or remove the point.
  for (const auto& info : util::SnapshotFailpoints()) {
    EXPECT_GT(info.hits, 0u)
        << "failpoint '" << info.name
        << "' was never reached by the sweep pipeline";
  }
}

TEST_F(FaultSweepTest, OneFaultAtATimeDegradesCleanly) {
  const PipelineOutcome baseline = RunPipeline(FreshDir("base"));
  ASSERT_TRUE(baseline.errors.empty())
      << "fault-free pipeline failed: " << baseline.errors.front();
  util::ResetFailpointCounters();

  const std::vector<std::string> names = util::RegisteredFailpoints();
  ASSERT_FALSE(names.empty());
  const char* kinds[] = {"err", "short", "enospc", "oom"};
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> totals;
  int run = 0;
  for (const std::string& name : names) {
    for (const char* kind : kinds) {
      const std::string spec = name + "=" + kind;
      SCOPED_TRACE(spec);
      std::string error;
      ASSERT_TRUE(util::ArmFailpointsFromSpec(spec, &error)) << error;
      const std::string dir = FreshDir("run" + std::to_string(run++));
      const PipelineOutcome out = RunPipeline(dir);
      util::DisarmAllFailpoints();

      // The armed fault must actually have been injected: up to its
      // first hit the run is deterministic and identical to the
      // baseline, which reaches every point.
      for (const auto& info : util::SnapshotFailpoints()) {
        totals[info.name].first += info.hits;
        totals[info.name].second += info.fires;
        if (info.name == name) {
          EXPECT_GE(info.fires, 1u) << "armed fault was never injected";
        }
      }
      CheckInvariants(out, baseline, spec);
      CheckArtifacts(dir, baseline);
      util::ResetFailpointCounters();
      std::error_code ec;
      fs::remove_all(dir, ec);  // bound /tmp usage across 100+ runs
    }
  }

  // A handful of deeper faults: later hits and sticky arming. The pack
  // writer and the staged-write sync also run before the extmem build
  // (the store's WritePack, the artifact writers), so the last two specs
  // count past the baseline's hits up to that point: they land inside
  // the extmem build, which must then fail cleanly.
  auto hit_in_ext = [&](const std::string& name, std::uint64_t nth) {
    return std::to_string(baseline.hits_before_ext.at(name) + nth);
  };
  const std::string ext_write =
      "store.pack_write.write=enospc@" +
      hit_in_ext("store.pack_write.write", 2);
  const std::string ext_sync =
      "util.atomic.sync=err@" + hit_in_ext("util.atomic.sync", 1) + "+";
  for (const std::string& spec :
       std::vector<std::string>{"store.pack_write.write=short@3",
                                "graph.write_edgelist.write=enospc@2",
                                "util.atomic.sync=err@2",
                                "store.map.open=err@1+",
                                "util.atomic.rename=err@1+",
                                "extmem.run.write=short@2",
                                "extmem.merge.read=err@3", ext_write,
                                ext_sync}) {
    SCOPED_TRACE(spec);
    std::string error;
    ASSERT_TRUE(util::ArmFailpointsFromSpec(spec, &error)) << error;
    const std::string dir = FreshDir("run" + std::to_string(run++));
    const PipelineOutcome out = RunPipeline(dir);
    util::DisarmAllFailpoints();
    CheckInvariants(out, baseline, spec);
    CheckArtifacts(dir, baseline);
    if (spec == ext_write || spec == ext_sync) {
      EXPECT_TRUE(out.wrote_edgelist);
      EXPECT_FALSE(out.ext_packed) << "fault missed the extmem build";
    }
    util::ResetFailpointCounters();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  if (const char* report = std::getenv("GORDER_FAULT_REPORT")) {
    std::ofstream outf(report);
    outf << "failpoint hits fires\n";
    for (const auto& [name, counts] : totals) {
      outf << name << " " << counts.first << " " << counts.second << "\n";
    }
  }
}

#else  // !GORDER_FAILPOINTS_ENABLED

TEST(FaultSweep, FrameworkCompiledOut) {
  GTEST_SKIP() << "build with -DGORDER_FAILPOINTS=ON to run the fault sweep";
}

#endif  // GORDER_FAILPOINTS_ENABLED

}  // namespace
}  // namespace gorder
