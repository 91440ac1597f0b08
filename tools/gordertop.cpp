// gordertop — live terminal watcher for a running gorderd
// (DESIGN.md §17).
//
// Polls the daemon's kStats opcode once per interval and renders the
// delta since the previous poll: qps, error/overload rates, queue
// depth, serving epoch, per-opcode windowed latencies (p50/p99 over the
// last 10s) and the store hit rate. Counters are monotonic, so every
// rate is (now - prev) / dt — restart-proof and cheap.
//
// Usage:
//   gordertop --connect=unix:/tmp/gorderd.sock [--interval=1]
//             [--count=N] [--once]
//
// `--once` (or --count=1) prints a single snapshot and exits — that is
// what the CI smoke job and the tests drive. Exit codes: 0 ok, 1 lost
// connection, 2 usage error.

#include <cstdio>
#include <cstdlib>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "serve/client.h"
#include "util/flags.h"
#include "util/net.h"

namespace gorder {
namespace {

struct OpcodeRow {
  std::string name;   // "neighbors"
  std::uint64_t count_10s = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
};

struct Sample {
  bool valid = false;
  double taken_s = 0;  // steady-clock seconds, for rate denominators
  std::uint64_t epoch = 0;
  std::uint64_t queue_depth = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t connections = 0;
  std::uint64_t traces_sampled = 0;
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t errors = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t store_misses = 0;
  std::vector<OpcodeRow> opcodes;
};

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Extracts the watcher's view from one gorder-stats document. Returns
/// false when the document is not parseable as gorder-stats.
bool ParseSample(const std::string& json, Sample* out, std::string* error) {
  obs::JsonValue doc;
  if (!obs::ParseJson(json, &doc, error)) return false;
  const obs::JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || schema->str != "gorder-stats") {
    *error = "not a gorder-stats document";
    return false;
  }
  out->epoch = doc.U64("epoch");
  out->queue_depth = doc.U64("queue_depth");
  out->in_flight = doc.U64("in_flight");
  out->connections = doc.U64("connections");
  out->traces_sampled = doc.U64("traces_sampled");
  if (const obs::JsonValue* counters = doc.Find("counters")) {
    out->requests = counters->U64("serve.requests");
    out->responses = counters->U64("serve.responses");
    out->overloaded = counters->U64("serve.overloaded");
    out->errors = counters->U64("serve.error_responses");
    out->store_hits = counters->U64("store.pack_hit") +
                      counters->U64("store.ordering_hit");
    out->store_misses = counters->U64("store.pack_miss") +
                        counters->U64("store.ordering_miss");
  }
  if (const obs::JsonValue* windows = doc.Find("windows")) {
    const std::string prefix = "serve.req_us.";
    for (const auto& [name, value] : windows->object) {
      if (name.rfind(prefix, 0) != 0) continue;
      const obs::JsonValue* short_win = value.Find("10s");
      if (short_win == nullptr) continue;
      OpcodeRow row;
      row.name = name.substr(prefix.size());
      row.count_10s = short_win->U64("count");
      row.p50 = short_win->U64("p50");
      row.p99 = short_win->U64("p99");
      out->opcodes.push_back(std::move(row));
    }
  }
  out->valid = true;
  return true;
}

void Render(const Sample& now, const Sample& prev) {
  const double dt =
      prev.valid && now.taken_s > prev.taken_s ? now.taken_s - prev.taken_s
                                               : 0;
  auto rate = [dt](std::uint64_t cur, std::uint64_t old) {
    if (dt <= 0 || cur < old) return 0.0;
    return static_cast<double>(cur - old) / dt;
  };
  std::printf("epoch %llu | conns %llu | queue %llu (+%llu in flight)\n",
              static_cast<unsigned long long>(now.epoch),
              static_cast<unsigned long long>(now.connections),
              static_cast<unsigned long long>(now.queue_depth),
              static_cast<unsigned long long>(now.in_flight));
  std::printf(
      "qps %.1f | resp/s %.1f | overload/s %.1f | err/s %.1f | "
      "traces %llu\n",
      rate(now.requests, prev.requests),
      rate(now.responses, prev.responses),
      rate(now.overloaded, prev.overloaded), rate(now.errors, prev.errors),
      static_cast<unsigned long long>(now.traces_sampled));
  const std::uint64_t lookups = now.store_hits + now.store_misses;
  if (lookups > 0) {
    std::printf("store hit rate %.1f%% (%llu lookups)\n",
                100.0 * static_cast<double>(now.store_hits) /
                    static_cast<double>(lookups),
                static_cast<unsigned long long>(lookups));
  }
  std::printf("%-14s %10s %10s %10s\n", "opcode", "req(10s)", "p50us",
              "p99us");
  for (const OpcodeRow& row : now.opcodes) {
    if (row.count_10s == 0) continue;  // only active opcodes
    std::printf("%-14s %10llu %10llu %10llu\n", row.name.c_str(),
                static_cast<unsigned long long>(row.count_10s),
                static_cast<unsigned long long>(row.p50),
                static_cast<unsigned long long>(row.p99));
  }
  std::fflush(stdout);
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string connect = flags.GetString("connect", "");
  const double interval_s = flags.GetDouble("interval", 1.0);
  std::int64_t count = flags.GetInt("count", 0);  // 0 = forever
  if (flags.GetBool("once", false)) count = 1;
  flags.RejectUnread();
  util::NetAddress addr;
  std::string parse_error;
  if (connect.empty() ||
      !util::ParseNetAddress(connect, &addr, &parse_error)) {
    std::fprintf(stderr,
                 "usage: gordertop --connect=unix:/path|tcp:HOST:PORT "
                 "[--interval=1] [--count=N] [--once]\n%s\n",
                 parse_error.c_str());
    return 2;
  }
  if (interval_s <= 0 || count < 0) {
    std::fprintf(stderr,
                 "error: --interval must be positive, --count "
                 "non-negative\n");
    return 2;
  }

  serve::Client client;
  IoResult r = client.Connect(addr);
  if (!r.ok) {
    std::fprintf(stderr, "gordertop: %s\n", r.error.c_str());
    return 1;
  }
  Sample prev;
  for (std::int64_t i = 0; count == 0 || i < count; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
      std::printf("\n");
    }
    serve::StatsReply reply = client.Stats();
    if (!reply.ok()) {
      std::fprintf(stderr, "gordertop: stats failed: %s\n",
                   reply.error.c_str());
      return 1;
    }
    Sample now;
    now.taken_s = SteadySeconds();
    std::string error;
    if (!ParseSample(reply.json, &now, &error)) {
      std::fprintf(stderr, "gordertop: bad stats json: %s\n", error.c_str());
      return 1;
    }
    Render(now, prev);
    prev = now;
  }
  return 0;
}

}  // namespace
}  // namespace gorder

int main(int argc, char** argv) { return gorder::Run(argc, argv); }
