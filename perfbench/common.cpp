#include "common.h"

#include <malloc.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "bench/bench_common.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE ""
#endif

namespace perfbench {

bool Run::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
  return ok;
}

void Run::CheckMany(std::uint64_t n, std::uint64_t bad,
                    const std::string& what) {
  attempted += n;
  failed += bad;
  if (bad > 0) {
    std::fprintf(stderr, "check failed: %llu of %llu %s\n",
                 static_cast<unsigned long long>(bad),
                 static_cast<unsigned long long>(n), what.c_str());
  }
}

void SetTracing(bool on) {
  gorder::obs::SetEnabledForTest(on);
  if (on) {
    gorder::obs::StartCapture();
  } else {
    gorder::obs::StopCapture();
  }
}

namespace {

bool IsBenchSpan(const gorder::obs::SpanRecord& r) {
  return r.name.rfind("pb/", 0) == 0 && r.dur_s >= 0;
}

std::string LayerOf(const std::string& span_name) {
  const std::string rest = span_name.substr(3);
  return rest.substr(0, rest.find('.'));
}

}  // namespace

std::map<std::string, double> LayerSelfTimes(double* spanned_s) {
  const std::vector<gorder::obs::SpanRecord> records =
      gorder::obs::SnapshotSpans();
  const int tid = gorder::obs::ThreadIndex();
  std::vector<double> child_s(records.size(), 0.0);
  for (const auto& r : records) {
    if (r.tid != tid || !IsBenchSpan(r) || r.parent < 0) continue;
    child_s[static_cast<std::size_t>(r.parent)] += r.dur_s;
  }
  std::map<std::string, double> self;
  *spanned_s = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    if (r.tid != tid || !IsBenchSpan(r)) continue;
    self[LayerOf(r.name)] += r.dur_s - child_s[i];
    if (r.parent < 0) *spanned_s += r.dur_s;
  }
  return self;
}

double SpanSeconds(const std::string& prefix) {
  double total = 0;
  for (const auto& r : gorder::obs::SnapshotSpans()) {
    if (r.dur_s >= 0 && r.name.rfind(prefix, 0) == 0) total += r.dur_s;
  }
  return total;
}

double ThreadCpuStopwatch::Now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

namespace {

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string ReadTrimmed(const std::string& path) {
  std::ifstream in(path);
  std::string text;
  std::getline(in, text);
  return text;
}

/// cgroup v2 "cpu.max" ("max 100000" = no quota), else the v1 quota and
/// period joined the same way; "unknown" when neither is readable.
std::string CgroupCpuMax() {
  std::string v2 = ReadTrimmed("/sys/fs/cgroup/cpu.max");
  if (!v2.empty()) return v2;
  std::string quota = ReadTrimmed("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
  std::string period = ReadTrimmed("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
  if (quota.empty() || period.empty()) return "unknown";
  return (quota == "-1" ? std::string("max") : quota) + " " + period;
}

std::string EnvOr(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

}  // namespace

void ReportEnvironment(Run* run) {
  run->usable_cpus = UsableCpus();
  const gorder::obs::EnvFingerprint env =
      gorder::obs::CollectEnvFingerprint();
  const double calibration_s = gorder::bench::CalibrationSeconds();
  gorder::obs::JsonWriter json;
  json.BeginObject();
  json.Key("environment");
  json.BeginObject();
  json.KV("workload", run->plan.name);
  json.KV("seed", static_cast<std::uint64_t>(run->seed));
  json.KV("seconds", run->seconds);
  json.KV("trace", run->trace);
  json.KV("usable_cpus", run->usable_cpus);
  json.KV("cgroup_cpu_max", CgroupCpuMax());
  json.KV("hardware_concurrency", env.hardware_concurrency);
  json.KV("cpu_model", env.cpu_model);
  json.KV("l2_bytes", static_cast<std::int64_t>(env.l2_bytes));
  json.KV("llc_bytes", static_cast<std::int64_t>(env.l3_bytes));
  json.KV("build_type", PERFBENCH_BUILD_TYPE);
  json.KV("sanitizer", std::string(PERFBENCH_SANITIZE).empty()
                           ? "none"
                           : PERFBENCH_SANITIZE);
  json.KV("compiler", env.compiler);
  json.KV("git_sha", EnvOr("PERFBENCH_GIT_SHA",
                           env.git_sha.empty() ? "unknown" : env.git_sha));
  json.KV("src_digest", EnvOr("PERFBENCH_SRC_DIGEST", "unknown"));
  json.KV("calibration_s", calibration_s);
  json.KV("perf_event_available", env.hw_counters_available);
  json.KV("obs_enabled", gorder::obs::Enabled());
  json.EndObject();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  if (run->trace) {
    run->Set("env.usable_cpus", run->usable_cpus, "count");
    run->Set("env.calibration_s", calibration_s, "s");
  }
}

}  // namespace perfbench
