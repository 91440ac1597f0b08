#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared plumbing of the repository benchmark: the metric sink, the
// output checks, layer spans, timing statistics and the process
// environment. Every stage (ingest.cpp, offline.cpp, serve.cpp) reports
// through a Run; main.cpp prints it.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/types.h"

namespace perfbench {

/// Sizes and time shares of one workload. Every workload runs the whole
/// chain (ingest -> offline ordering and kernels -> serving), so every
/// end-to-end metric is measured on every workload; the plan decides
/// which stage dominates. MakePlan (main.cpp) sets the sizes and shares
/// of each workload.
struct Plan {
  std::string name;
  // ingest: rmat-huge stream packed out of core under a memory budget
  // below its edge list.
  double ingest_scale = 0;
  double ingest_budget_mb = 0;
  // offline: the sdarc web stand-in, ordered four ways.
  double web_scale = 0;
  // serve: a smaller sdarc, swapped between its Original and Gorder
  // layouts every swap_period_s.
  double serve_scale = 0.5;
  double swap_period_s = 0.5;
  // Shares of --seconds given to the duration-bound parts of each stage:
  // ingest rounds, kernel rounds, nominal serve windows and closed-loop
  // saturating serve parts. Minimum round counts may overrun a share.
  double ingest_share = 0;
  double kernel_share = 0;
  double nominal_share = 0;
  double saturate_share = 0;
  int setup_repeats = 3;
};

/// One process run: options, the metric sink and the check tally.
struct Run {
  Plan plan;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  int usable_cpus = 1;

  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Traced-run accounting (main.cpp ReportLayerTimes): wall time of the
  // rounds and windows run with tracing off, and the split of the traced
  // serve load phases into time with a request in flight (serve's) and
  // the client's own pacing (the benchmark's).
  double untraced_s = 0;
  double serve_in_flight_s = 0;
  double serve_idle_s = 0;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Counts one checked operation; a false `ok` is a failure and is
  /// explained on stderr.
  bool Check(bool ok, const std::string& what);
  /// Counts `n` operations at once, `bad` of which failed.
  void CheckMany(std::uint64_t n, std::uint64_t bad, const std::string& what);
  std::string Path(const std::string& file) const {
    return work_dir + "/" + file;
  }
};

/// In the traced run, round or window `i` of a repeated part runs with
/// tracing off when i % 3 == 1: two in three are traced, and the rest
/// give the tracing overhead.
inline bool UntracedRound(const Run& run, int i) {
  return run.trace && i % 3 == 1;
}

/// Span around one call into a layer: the name is "pb/<layer>.<op>".
/// Only spans whose name carries the "pb/" prefix enter the per-layer
/// accounting (LayerSelfTimes); spans the libraries open themselves are
/// counted in the self time of the benchmark span that encloses them.
#define PB_SPAN(var, name) GORDER_OBS_SPAN(var, std::string("pb/") + (name))

/// Switches span capture and the library counters on or off together,
/// so an untraced round costs what a GORDER_OBS=off process pays.
void SetTracing(bool on);

/// Per-layer self time from the captured span tree of the calling
/// thread: a "pb/" span's duration minus that of its "pb/" children,
/// summed per layer (the text between "pb/" and the first '.').
/// `*spanned_s` receives the summed duration of the root spans.
std::map<std::string, double> LayerSelfTimes(double* spanned_s);

/// Summed duration of every captured span whose name starts with
/// `prefix`, on any thread.
double SpanSeconds(const std::string& prefix);

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// CPU time of the calling thread. For work that runs serially on that
/// thread it is the wall time less the time the thread was not running:
/// preempted, or its virtual CPU stolen by the host.
class ThreadCpuStopwatch {
 public:
  ThreadCpuStopwatch() : start_(Now()) {}
  double Seconds() const { return Now() - start_; }

 private:
  static double Now();
  double start_;
};

double Median(std::vector<double> v);
/// Linearly interpolated quantile of an unsorted sample, q in [0, 1].
double Quantile(std::vector<double> v, double q);

/// Peak resident set since the last ResetPeakRss, in MiB.
double PeakRssMb();
/// Resets VmHWM to the current RSS (after returning free heap to the
/// kernel); false when the kernel refuses /proc/self/clear_refs.
bool ResetPeakRss();

/// Prints the effective environment as one JSON line on stdout and
/// records its numeric parts as env.* metrics when tracing.
void ReportEnvironment(Run* run);

/// Stages, in the order main runs them. Ingest runs first, on a fresh
/// process heap, so its peak RSS is its own.
void RunIngest(Run* run);
void RunSetup(Run* run);
void RunOffline(Run* run);
void RunServe(Run* run);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
