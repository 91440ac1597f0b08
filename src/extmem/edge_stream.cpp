#include "extmem/edge_stream.h"

#include <algorithm>
#include <filesystem>
#include <memory>

#include "obs/metrics.h"
#include "util/atomic_file.h"
#include "util/failpoint.h"
#include "util/file_ptr.h"

namespace gorder::extmem {

namespace {

GORDER_FAILPOINT_DEFINE(fp_run_mkdir, "extmem.run.mkdir");
GORDER_FAILPOINT_DEFINE(fp_run_open, "extmem.run.open");
GORDER_FAILPOINT_DEFINE(fp_run_write, "extmem.run.write");
GORDER_FAILPOINT_DEFINE(fp_merge_open, "extmem.merge.open");
GORDER_FAILPOINT_DEFINE(fp_merge_read, "extmem.merge.read");

GORDER_OBS_COUNTER(c_runs_written, "extmem.runs_written");
GORDER_OBS_COUNTER(c_run_bytes, "extmem.run_bytes");
GORDER_OBS_COUNTER(c_merge_passes, "extmem.merge_passes");

// Radix digits: three per 32-bit id (11 + 11 + 10 bits), dst's before
// src's, so the last (most significant) pass is on src's top digit.
constexpr int kDigitBits = 11;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
constexpr int kDigitsPerId = 3;
constexpr int kDigits = 2 * kDigitsPerId;

inline std::size_t DigitOf(NodeId id, int shift) {
  return (id >> shift) & (kBuckets - 1);
}

/// One stable counting-sort scatter of `from` into `to` on the digit of
/// `Field` at `shift`; `offsets` holds the digit's bucket counts and is
/// consumed.
template <NodeId Edge::*Field>
void ScatterByDigit(const std::vector<Edge>& from, std::vector<Edge>* to,
                    int shift, std::size_t* offsets) {
  std::size_t sum = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::size_t c = offsets[b];
    offsets[b] = sum;
    sum += c;
  }
  Edge* out = to->data();
  for (const Edge& e : from) out[offsets[DigitOf(e.*Field, shift)]++] = e;
}

/// Packs an edge into the merge key: (src, dst) order is integer order.
inline std::uint64_t EdgeKey(const Edge& e) {
  return std::uint64_t{e.src} << 32 | e.dst;
}

/// Streams `count` edges to `f` in large fwrite chunks.
bool WriteEdgesBuffered(std::FILE* f, const Edge* edges, std::size_t count) {
  constexpr std::size_t kChunk = (8u << 20) / sizeof(Edge);
  while (count > 0) {
    const std::size_t step = std::min(count, kChunk);
    if (GORDER_FAULT_IO(fp_run_write, step,
                        std::fwrite(edges, sizeof(Edge), step, f)) != step) {
      return false;
    }
    edges += step;
    count -= step;
  }
  return true;
}

}  // namespace

void RadixSortEdges(std::vector<Edge>* edges, std::vector<Edge>* scratch) {
  const std::size_t n = edges->size();
  if (n < 2) return;
  // One read builds every digit's histogram; a digit on which all keys
  // agree puts all n keys in one bucket and needs no pass.
  std::vector<std::size_t> hist(kDigits * kBuckets, 0);
  for (const Edge& e : *edges) {
    for (int d = 0; d < kDigitsPerId; ++d) {
      ++hist[d * kBuckets + DigitOf(e.dst, d * kDigitBits)];
      ++hist[(kDigitsPerId + d) * kBuckets + DigitOf(e.src, d * kDigitBits)];
    }
  }
  const Edge first = edges->front();
  scratch->resize(n);
  for (int d = 0; d < kDigits; ++d) {
    const bool on_src = d >= kDigitsPerId;
    const int shift = (d % kDigitsPerId) * kDigitBits;
    std::size_t* counts = &hist[d * kBuckets];
    if (counts[DigitOf(on_src ? first.src : first.dst, shift)] == n) continue;
    if (on_src) {
      ScatterByDigit<&Edge::src>(*edges, scratch, shift, counts);
    } else {
      ScatterByDigit<&Edge::dst>(*edges, scratch, shift, counts);
    }
    edges->swap(*scratch);
  }
}

// ---------------------------------------------------------------------------
// RunSet

IoResult RunSet::Create(const std::string& prefix) {
  // The staging-infix name keeps the scratch directory inside the
  // no-`.tmp.`-debris contract checked by the fault sweep.
  dir_ = util::StagingPath(prefix + ".runs");
  std::error_code ec;
  if (GORDER_FAILPOINT(fp_run_mkdir) != util::FaultKind::kNone ||
      !std::filesystem::create_directories(dir_, ec)) {
    const std::string d = dir_;
    dir_.clear();
    return IoResult::Error("cannot create scratch directory " + d);
  }
  return IoResult::Ok();
}

IoResult RunSet::WriteRun(const Edge* edges, std::size_t count) {
  const std::string path =
      dir_ + "/run-" + std::to_string(next_id_++) + ".edges";
  if (GORDER_FAILPOINT(fp_run_open) != util::FaultKind::kNone) {
    return IoResult::Error("cannot open run file " + path);
  }
  util::FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return IoResult::Error("cannot open run file " + path);
  if (!WriteEdgesBuffered(f.get(), edges, count)) {
    f.reset();
    std::error_code ec;
    std::filesystem::remove(path, ec);
    return IoResult::Error("short write to run file " + path);
  }
  // Scratch runs are intentionally not fsynced: they never outlive the
  // build, and a crash aborts the whole build anyway.
  runs_.push_back({path, count});
  runs_written_ += 1;
  bytes_written_ += count * sizeof(Edge);
  GORDER_OBS_INC(c_runs_written);
  GORDER_OBS_ADD(c_run_bytes, count * sizeof(Edge));
  return IoResult::Ok();
}

IoResult RunSet::WriteMerged(MergeStream* merge, std::size_t buffer_edges) {
  const std::string path =
      dir_ + "/run-" + std::to_string(next_id_++) + ".edges";
  if (GORDER_FAILPOINT(fp_run_open) != util::FaultKind::kNone) {
    return IoResult::Error("cannot open run file " + path);
  }
  util::FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return IoResult::Error("cannot open run file " + path);
  auto fail = [&](IoResult r) {
    f.reset();
    std::error_code ec;
    std::filesystem::remove(path, ec);
    return r;
  };
  std::vector<Edge> buf;
  buf.reserve(std::max<std::size_t>(buffer_edges, 1));
  std::uint64_t total = 0;
  while (true) {
    Edge e;
    bool eof = false;
    if (IoResult r = merge->Next(&e, &eof); !r.ok) return fail(r);
    if (!eof) buf.push_back(e);
    if (buf.size() >= buf.capacity() || (eof && !buf.empty())) {
      if (!WriteEdgesBuffered(f.get(), buf.data(), buf.size())) {
        return fail(IoResult::Error("short write to run file " + path));
      }
      total += buf.size();
      buf.clear();
    }
    if (eof) break;
  }
  runs_.push_back({path, total});
  runs_written_ += 1;
  bytes_written_ += total * sizeof(Edge);
  GORDER_OBS_INC(c_runs_written);
  GORDER_OBS_ADD(c_run_bytes, total * sizeof(Edge));
  return IoResult::Ok();
}

std::uint64_t RunSet::TotalEdges() const {
  std::uint64_t total = 0;
  for (const Run& r : runs_) total += r.edges;
  return total;
}

void RunSet::DropRuns(std::size_t count) {
  count = std::min(count, runs_.size());
  std::error_code ec;
  for (std::size_t i = 0; i < count; ++i) {
    std::filesystem::remove(runs_[i].path, ec);
  }
  runs_.erase(runs_.begin(),
              runs_.begin() + static_cast<std::ptrdiff_t>(count));
}

void RunSet::Remove() {
  if (dir_.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);  // best-effort
  dir_.clear();
  runs_.clear();
}

// ---------------------------------------------------------------------------
// MergeStream

struct MergeStream::Source {
  util::FilePtr file;
  std::string path;
  std::vector<Edge> buffer;
  std::size_t pos = 0;    // next unread edge in buffer
  std::size_t filled = 0; // valid edges in buffer
  std::uint64_t remaining = 0;  // edges left in the file
};

MergeStream::MergeStream() = default;

MergeStream::~MergeStream() { Close(); }

void MergeStream::Close() {
  sources_.clear();
  keys_.clear();
  heap_.clear();
  have_last_ = false;
}

IoResult MergeStream::Refill(Source& src) {
  const std::size_t want = static_cast<std::size_t>(
      std::min<std::uint64_t>(src.buffer.capacity(), src.remaining));
  src.buffer.resize(want);
  if (want > 0 &&
      GORDER_FAULT_IO(fp_merge_read, want,
                      std::fread(src.buffer.data(), sizeof(Edge), want,
                                 src.file.get())) != want) {
    return IoResult::Error("short read from run file " + src.path);
  }
  src.pos = 0;
  src.filled = want;
  src.remaining -= want;
  return IoResult::Ok();
}

bool MergeStream::SourceLess(std::uint32_t a, std::uint32_t b) const {
  if (keys_[a] != keys_[b]) return keys_[a] < keys_[b];
  return a < b;  // deterministic tie-break across runs
}

void MergeStream::HeapSiftDown(std::size_t i) {
  // Moves the hole down instead of swapping at every level.
  const std::size_t n = heap_.size();
  const std::uint32_t item = heap_[i];
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && SourceLess(heap_[child + 1], heap_[child])) ++child;
    if (!SourceLess(heap_[child], item)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = item;
}

IoResult MergeStream::Open(const RunSet& runs, std::size_t first,
                           std::size_t count, std::size_t buffer_edges) {
  Close();
  buffer_edges = std::max<std::size_t>(buffer_edges, 64);
  for (std::size_t i = 0; i < count; ++i) {
    auto src = std::make_unique<Source>();
    src->path = runs.RunPath(first + i);
    src->remaining = runs.RunEdges(first + i);
    if (src->remaining == 0) continue;  // empty run: nothing to merge
    if (GORDER_FAILPOINT(fp_merge_open) != util::FaultKind::kNone) {
      return IoResult::Error("cannot open run file " + src->path);
    }
    src->file.reset(std::fopen(src->path.c_str(), "rb"));
    if (!src->file) {
      return IoResult::Error("cannot open run file " + src->path);
    }
    src->buffer.reserve(buffer_edges);
    if (IoResult r = Refill(*src); !r.ok) return r;
    keys_.push_back(EdgeKey(src->buffer[0]));
    sources_.push_back(std::move(src));
    heap_.push_back(static_cast<std::uint32_t>(sources_.size() - 1));
  }
  // Heapify (sift down from the last parent).
  for (std::size_t i = heap_.size() / 2; i-- > 0;) HeapSiftDown(i);
  return IoResult::Ok();
}

IoResult MergeStream::Next(Edge* edge, bool* eof) {
  while (!heap_.empty()) {
    const std::uint32_t top = heap_[0];
    Source& src = *sources_[top];
    const Edge e = src.buffer[src.pos++];
    if (src.pos == src.filled) {
      if (src.remaining > 0) {
        if (IoResult r = Refill(src); !r.ok) return r;
      }
      if (src.pos == src.filled) {
        // Source exhausted: remove from the heap.
        heap_[0] = heap_.back();
        heap_.pop_back();
        if (!heap_.empty()) HeapSiftDown(0);
      } else {
        keys_[top] = EdgeKey(src.buffer[0]);
        HeapSiftDown(0);
      }
    } else {
      keys_[top] = EdgeKey(src.buffer[src.pos]);
      HeapSiftDown(0);
    }
    if (have_last_ && e == last_) continue;  // duplicate: emit once
    last_ = e;
    have_last_ = true;
    *edge = e;
    *eof = false;
    return IoResult::Ok();
  }
  *eof = true;
  return IoResult::Ok();
}

// ---------------------------------------------------------------------------
// ExternalEdgeSorter

ExternalEdgeSorter::ExternalEdgeSorter(const ExtmemOptions& options)
    : options_(options) {
  // The explicit override is honoured down to 2 edges so tests can force
  // run boundaries anywhere; the derived default keeps a sane floor. The
  // radix sort's scratch is as large as the buffer, so the two together
  // take half the budget.
  buffer_capacity_ =
      options.run_buffer_edges != 0
          ? std::max<std::size_t>(options.run_buffer_edges, 2)
          : std::max<std::size_t>(
                4096, static_cast<std::size_t>(options.mem_budget_bytes / 4 /
                                               sizeof(Edge)));
  const std::size_t fanin = std::max<std::size_t>(options.merge_fanin, 2);
  options_.merge_fanin = fanin;
  // A quarter of the budget split across the merge read buffers.
  merge_buffer_edges_ = std::clamp<std::size_t>(
      static_cast<std::size_t>(options.mem_budget_bytes / 4 / fanin /
                               sizeof(Edge)),
      1024, 1u << 20);
}

IoResult ExternalEdgeSorter::Create(const std::string& prefix) {
  buffer_.reserve(std::min<std::size_t>(buffer_capacity_, 1u << 16));
  return runs_.Create(prefix);
}

IoResult ExternalEdgeSorter::SpillBuffer() {
  if (buffer_.empty()) return IoResult::Ok();
  RadixSortEdges(&buffer_, &scratch_);
  IoResult r = runs_.WriteRun(buffer_.data(), buffer_.size());
  buffer_.clear();
  return r;
}

IoResult ExternalEdgeSorter::AddBatch(const Edge* edges, std::size_t count) {
  while (count > 0) {
    const std::size_t take =
        std::min(count, buffer_capacity_ - buffer_.size());
    buffer_.insert(buffer_.end(), edges, edges + take);
    edges_added_ += take;
    edges += take;
    count -= take;
    if (buffer_.size() == buffer_capacity_) {
      if (IoResult r = SpillBuffer(); !r.ok) return r;
    }
  }
  return IoResult::Ok();
}

IoResult ExternalEdgeSorter::Finish(ExtBuildStats* stats) {
  if (IoResult r = SpillBuffer(); !r.ok) return r;
  // Release the run buffer and the sort scratch before the merge phases.
  buffer_ = std::vector<Edge>();
  scratch_ = std::vector<Edge>();
  // Compact until one merge pass can cover everything.
  while (runs_.NumRuns() > options_.merge_fanin) {
    MergeStream merge;
    if (IoResult r = merge.Open(runs_, 0, options_.merge_fanin,
                                merge_buffer_edges_);
        !r.ok) {
      return r;
    }
    if (IoResult r = runs_.WriteMerged(&merge, merge_buffer_edges_); !r.ok) {
      return r;
    }
    merge.Close();
    runs_.DropRuns(options_.merge_fanin);
    if (stats != nullptr) stats->merge_passes += 1;
    GORDER_OBS_INC(c_merge_passes);
  }
  finished_ = true;
  if (stats != nullptr) {
    stats->runs_written += runs_.runs_written();
    stats->run_bytes += runs_.bytes_written();
  }
  return IoResult::Ok();
}

IoResult ExternalEdgeSorter::OpenMerge(MergeStream* merge) const {
  return merge->Open(runs_, 0, runs_.NumRuns(), merge_buffer_edges_);
}

}  // namespace gorder::extmem
