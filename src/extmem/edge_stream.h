#ifndef GORDER_EXTMEM_EDGE_STREAM_H_
#define GORDER_EXTMEM_EDGE_STREAM_H_

/// Out-of-core edge streaming (DESIGN.md §18).
///
/// The building block of the external-memory pipeline: an
/// `ExternalEdgeSorter` accepts an unbounded stream of edges through a
/// bounded in-RAM buffer, spills sorted *runs* to a scratch directory,
/// and afterwards replays the whole stream in globally sorted (src, dst)
/// order — as many times as needed — through a bounded k-way
/// `MergeStream`. Runs beyond the merge fan-in are compacted by extra
/// merge passes, so RAM stays bounded no matter how many times the
/// buffer spilled.
///
/// Scratch files live in a directory whose name carries the `.tmp.`
/// staging infix (util::StagingPath convention), so the fault-sweep
/// debris check covers them: any failure path must leave nothing behind,
/// and the RunSet destructor removes the directory best-effort.
///
/// Every IO site carries a named `extmem.*` failpoint (DESIGN.md §14).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/io_result.h"

namespace gorder::extmem {

/// Knobs for the out-of-core pipeline. The memory budget governs the
/// streaming state (run buffer, merge read buffers); the O(n) vertex
/// state the build and the ordering keep in RAM is reported by
/// EstimateMemory (ext_csr.h), not bounded here.
struct ExtmemOptions {
  /// Target for the streaming buffers. Default 256 MB.
  std::uint64_t mem_budget_bytes = 256ull << 20;
  /// Max runs merged in one pass; more runs trigger compaction passes.
  std::size_t merge_fanin = 64;
  /// Scratch directory for run files. Empty: next to the output pack.
  std::string scratch_dir;
  /// Edges buffered in RAM before a run is spilled. 0 = derive from
  /// mem_budget_bytes. Tests set a small value to force many runs.
  std::size_t run_buffer_edges = 0;
};

/// Counters filled by the external build, reported by the CLI and bench.
struct ExtBuildStats {
  std::uint64_t edges_ingested = 0;  // as given (before dedup/loop strip)
  std::uint64_t edges_final = 0;     // m of the finished pack
  std::uint64_t runs_written = 0;    // run files spilled (incl. compaction)
  std::uint64_t run_bytes = 0;       // bytes spilled to scratch
  std::uint64_t merge_passes = 0;    // compaction passes beyond the final
};

class MergeStream;

/// A scratch directory of sorted run files. Created under a `.tmp.`
/// staging name; Remove() (and the destructor, best-effort) deletes the
/// whole directory so no debris survives success *or* failure.
class RunSet {
 public:
  RunSet() = default;
  ~RunSet() { Remove(); }
  RunSet(const RunSet&) = delete;
  RunSet& operator=(const RunSet&) = delete;

  /// Creates the scratch directory. `prefix` is the path the directory
  /// name is derived from (typically the target pack path).
  IoResult Create(const std::string& prefix);

  /// Writes `count` sorted edges as one run file.
  IoResult WriteRun(const Edge* edges, std::size_t count);

  /// Drains `merge` into a new run file through a bounded buffer —
  /// the compaction step when the run count exceeds the merge fan-in.
  IoResult WriteMerged(MergeStream* merge, std::size_t buffer_edges);

  std::size_t NumRuns() const { return runs_.size(); }
  const std::string& RunPath(std::size_t i) const { return runs_[i].path; }
  std::uint64_t RunEdges(std::size_t i) const { return runs_[i].edges; }
  std::uint64_t TotalEdges() const;

  /// Drops the first `count` runs (deleting their files) — used by
  /// compaction after it merged them into a new run.
  void DropRuns(std::size_t count);

  /// Removes the scratch directory and every run in it.
  void Remove();

  std::uint64_t runs_written() const { return runs_written_; }
  std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  struct Run {
    std::string path;
    std::uint64_t edges = 0;
  };
  std::string dir_;
  std::vector<Run> runs_;
  std::uint64_t next_id_ = 0;
  std::uint64_t runs_written_ = 0;
  std::uint64_t bytes_written_ = 0;
};

/// Streams the edges of a set of sorted runs in globally sorted
/// (src, dst) order via a binary-heap k-way merge with bounded per-run
/// read buffers. Duplicate edges (within or across runs) are emitted
/// once. The run set must hold at most `merge_fanin` runs — callers go
/// through ExternalEdgeSorter, which compacts first.
class MergeStream {
 public:
  MergeStream();  // out-of-line: Source is incomplete here
  ~MergeStream();
  MergeStream(const MergeStream&) = delete;
  MergeStream& operator=(const MergeStream&) = delete;

  /// Opens every run of `runs` (indices [first, first+count)).
  /// `buffer_edges` bounds each run's read buffer.
  IoResult Open(const RunSet& runs, std::size_t first, std::size_t count,
                std::size_t buffer_edges);

  /// Fetches the next deduplicated edge. Sets `*eof` when exhausted.
  IoResult Next(Edge* edge, bool* eof);

  void Close();

 private:
  struct Source;
  IoResult Refill(Source& src);

  std::vector<std::unique_ptr<Source>> sources_;
  std::vector<std::uint32_t> heap_;  // indices into sources_
  Edge last_{};
  bool have_last_ = false;

  void HeapSiftDown(std::size_t i);
  bool SourceLess(std::uint32_t a, std::uint32_t b) const;
};

/// Bounded-memory external sorter: Add() buffers edges, spilling sorted
/// runs; Finish() flushes and compacts to at most `merge_fanin` runs;
/// afterwards OpenMerge() replays the sorted, deduplicated stream (and
/// can be called repeatedly — the degree-counting and neighbor-writing
/// passes of the CSR build each replay it once).
///
/// Self-loops are *kept* here (they sort like any edge); the CSR builder
/// strips them at its level, mirroring Graph::Builder.
class ExternalEdgeSorter {
 public:
  explicit ExternalEdgeSorter(const ExtmemOptions& options);
  ~ExternalEdgeSorter() = default;

  /// Creates the scratch run directory (named after `prefix`).
  IoResult Create(const std::string& prefix);

  IoResult Add(Edge e);
  IoResult AddBatch(const Edge* edges, std::size_t count);

  /// Flushes the tail buffer and compacts to <= merge_fanin runs.
  IoResult Finish(ExtBuildStats* stats);

  /// Opens a merge over the finished runs. Valid after Finish(); may be
  /// called multiple times. An empty sorter yields an immediate EOF.
  IoResult OpenMerge(MergeStream* merge) const;

  std::uint64_t edges_added() const { return edges_added_; }

  /// Releases scratch space early (destructor also does this).
  void ReleaseScratch() { runs_.Remove(); }

 private:
  IoResult SpillBuffer();

  ExtmemOptions options_;
  std::size_t buffer_capacity_ = 0;
  std::size_t merge_buffer_edges_ = 0;
  std::vector<Edge> buffer_;
  RunSet runs_;
  std::uint64_t edges_added_ = 0;
  bool finished_ = false;
};

}  // namespace gorder::extmem

#endif  // GORDER_EXTMEM_EDGE_STREAM_H_
