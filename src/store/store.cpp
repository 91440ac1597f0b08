#include "store/store.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <new>

#include "gen/datasets.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/fingerprint.h"
#include "store/mapped_file.h"
#include "util/atomic_file.h"
#include "util/crc32.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/timer.h"

namespace gorder::store {

namespace {

GORDER_FAILPOINT_DEFINE(fp_ord_open, "store.ordering_write.open");
GORDER_FAILPOINT_DEFINE(fp_ord_write, "store.ordering_write.write");
GORDER_FAILPOINT_DEFINE(fp_ord_close, "store.ordering_write.close");
GORDER_FAILPOINT_DEFINE(fp_ord_load_alloc, "store.ordering_load.alloc");

static_assert(std::endian::native == std::endian::little,
              "gperm I/O assumes a little-endian host");

GORDER_OBS_COUNTER(c_pack_hit, "store.pack_hit");
GORDER_OBS_COUNTER(c_pack_miss, "store.pack_miss");
GORDER_OBS_COUNTER(c_ordering_hit, "store.ordering_hit");
GORDER_OBS_COUNTER(c_ordering_miss, "store.ordering_miss");
GORDER_OBS_COUNTER(c_ordering_write, "store.ordering_write");

constexpr char kGpermMagic[8] = {'G', 'P', 'E', 'R', 'M', 'B', 'I', 'N'};
constexpr std::uint32_t kGpermFormatVersion = 1;

/// .gperm ordering artifact header; the permutation (num_nodes x NodeId)
/// follows immediately.
struct GpermHeader {
  char magic[8];
  std::uint32_t format_version;
  std::uint32_t reserved;
  std::uint64_t graph_fingerprint;
  std::uint64_t params_hash;
  std::uint64_t num_nodes;
  double compute_seconds;
  std::uint32_t perm_crc;    // CRC32 of the permutation payload
  std::uint32_t header_crc;  // CRC32 of this header with the field zeroed
};
static_assert(sizeof(GpermHeader) == 56);

std::uint32_t GpermHeaderCrc(GpermHeader h) {
  h.header_crc = 0;
  return Crc32(&h, sizeof h);
}

/// Non-aborting permutation check (CheckPermutation in graph.h aborts;
/// a corrupt cache artifact must degrade to a miss instead).
bool IsPermutation(const std::vector<NodeId>& perm, NodeId n) {
  if (perm.size() != n) return false;
  std::vector<bool> seen(n, false);
  for (NodeId p : perm) {
    if (p >= n || seen[p]) return false;
    seen[p] = true;
  }
  return true;
}

std::string FormatScale(double scale) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", scale);
  return buf;
}

}  // namespace

std::uint64_t HashOrderingKey(order::Method method,
                              const order::OrderingParams& params) {
  Hash64 h;
  h.MixString(order::MethodName(method));
  h.Mix(params.seed);
  h.Mix(params.window);
  h.Mix(params.gorder_sibling_score ? 1 : 0);
  h.Mix(params.gorder_neighbor_score ? 1 : 0);
  h.Mix(params.gorder_hub_cap);
  h.Mix(params.gorder_lazy_decrements ? 1 : 0);
  h.Mix(params.sa_steps);
  h.Mix(std::bit_cast<std::uint64_t>(params.sa_standard_energy));
  h.Mix(params.sa_local_search ? 1 : 0);
  h.Mix(params.ldg_bin_capacity);
  return h.Digest();
}

std::string Store::PackPath(const std::string& dataset, double scale,
                            std::uint64_t seed) const {
  return root_ + "/packs/" + dataset + "-s" + FormatScale(scale) + "-r" +
         std::to_string(seed) + "-v" +
         std::to_string(gen::kDatasetRecipeVersion) + ".gpack";
}

Graph Store::GetDataset(const std::string& name, double scale,
                        std::uint64_t seed) {
  const std::string path = PackPath(name, scale, seed);
  Graph g;
  if (std::filesystem::exists(path)) {
    Timer timer;
    IoResult r = LoadPack(path, &g, LoadMode::kMmap);
    if (r.ok) {
      GORDER_OBS_INC(c_pack_hit);
      GORDER_LOG_INFO(
          "store: pack hit %s (n=%u m=%llu, mmap %.1f MB in %.1f ms)\n",
          path.c_str(), g.NumNodes(),
          static_cast<unsigned long long>(g.NumEdges()),
          static_cast<double>(g.MemoryBytes()) / (1 << 20),
          timer.Seconds() * 1e3);
      return g;
    }
    // A corrupt or version-skewed pack is a miss: regenerate and
    // overwrite it, but tell the user why.
    GORDER_LOG_INFO("store: discarding unusable pack: %s\n",
                    r.error.c_str());
  }
  GORDER_OBS_INC(c_pack_miss);
  GORDER_LOG_INFO("store: pack miss for %s (scale=%s seed=%llu) — "
                  "generating and packing\n",
                  name.c_str(), FormatScale(scale).c_str(),
                  static_cast<unsigned long long>(seed));
  g = gen::MakeDataset(name, scale, seed);
  IoResult w = WritePack(path, g);
  if (!w.ok) {
    // The store is an accelerator, not a correctness dependency: if the
    // disk is read-only or full, run from the in-memory graph.
    GORDER_LOG_INFO("store: cannot write pack (%s); continuing unpacked\n",
                    w.error.c_str());
  }
  return g;
}

std::string Store::OrderingPath(std::uint64_t graph_fingerprint,
                                order::Method method,
                                const order::OrderingParams& params) const {
  return root_ + "/orderings/" + FingerprintHex(graph_fingerprint) + "/" +
         order::MethodName(method) + "-" +
         FingerprintHex(HashOrderingKey(method, params)) + ".gperm";
}

bool Store::LoadOrdering(std::uint64_t graph_fingerprint,
                         order::Method method,
                         const order::OrderingParams& params, NodeId num_nodes,
                         CachedOrdering* out) {
  GORDER_OBS_SPAN(span, "store.ordering_lookup");
  const std::string path = OrderingPath(graph_fingerprint, method, params);
  std::shared_ptr<MappedFile> file;
  if (!MappedFile::Map(path, &file).ok) {
    GORDER_OBS_INC(c_ordering_miss);
    return false;
  }
  auto miss = [&](const char* why) {
    GORDER_LOG_INFO("store: ignoring ordering artifact %s: %s\n",
                    path.c_str(), why);
    GORDER_OBS_INC(c_ordering_miss);
    return false;
  };
  if (file->size() < sizeof(GpermHeader)) return miss("truncated header");
  GpermHeader h;
  std::memcpy(&h, file->data(), sizeof h);
  if (std::memcmp(h.magic, kGpermMagic, sizeof h.magic) != 0) {
    return miss("bad magic");
  }
  if (h.format_version != kGpermFormatVersion) {
    return miss("format version mismatch");
  }
  if (GpermHeaderCrc(h) != h.header_crc) return miss("header checksum");
  if (h.graph_fingerprint != graph_fingerprint) {
    return miss("graph fingerprint mismatch");
  }
  if (h.params_hash != HashOrderingKey(method, params)) {
    return miss("ordering-params mismatch");
  }
  if (h.num_nodes != num_nodes) return miss("node count mismatch");
  const std::uint64_t perm_bytes = h.num_nodes * sizeof(NodeId);
  if (file->size() - sizeof(GpermHeader) < perm_bytes) {
    return miss("truncated permutation");
  }
  const auto* perm_data =
      reinterpret_cast<const NodeId*>(file->data() + sizeof(GpermHeader));
  if (Crc32(perm_data, static_cast<std::size_t>(perm_bytes)) != h.perm_crc) {
    return miss("permutation checksum");
  }
  try {
    GORDER_FAULT_ALLOC(fp_ord_load_alloc);
    out->perm.assign(perm_data, perm_data + h.num_nodes);
  } catch (const std::bad_alloc&) {
    out->perm.clear();
    return miss("cannot allocate permutation buffer");
  }
  if (!IsPermutation(out->perm, num_nodes)) {
    out->perm.clear();
    return miss("payload is not a permutation");
  }
  out->compute_seconds = h.compute_seconds;
  GORDER_OBS_INC(c_ordering_hit);
  return true;
}

IoResult Store::SaveOrdering(std::uint64_t graph_fingerprint,
                             order::Method method,
                             const order::OrderingParams& params,
                             const std::vector<NodeId>& perm,
                             double compute_seconds) {
  const std::string path = OrderingPath(graph_fingerprint, method, params);
  GpermHeader h = {};
  std::memcpy(h.magic, kGpermMagic, sizeof h.magic);
  h.format_version = kGpermFormatVersion;
  h.graph_fingerprint = graph_fingerprint;
  h.params_hash = HashOrderingKey(method, params);
  h.num_nodes = perm.size();
  h.compute_seconds = compute_seconds;
  h.perm_crc = Crc32(perm.data(), perm.size() * sizeof(NodeId));
  h.header_crc = GpermHeaderCrc(h);

  std::error_code ec;
  const std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::filesystem::create_directories(target.parent_path(), ec);
  }
  const std::string tmp = util::StagingPath(path);
  if (GORDER_FAILPOINT(fp_ord_open) != util::FaultKind::kNone) {
    return IoResult::Error("cannot open " + tmp);
  }
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return IoResult::Error("cannot open " + tmp);
  bool ok = GORDER_FAULT_IO(fp_ord_write, 1,
                            std::fwrite(&h, sizeof h, 1, f)) == 1 &&
            (perm.empty() ||
             GORDER_FAULT_IO(fp_ord_write, perm.size(),
                             std::fwrite(perm.data(), sizeof(NodeId),
                                         perm.size(), f)) == perm.size());
  ok = ok && util::FlushAndSync(f);
  ok = GORDER_FAULT_OK(fp_ord_close, std::fclose(f) == 0) && ok;
  if (!ok) {
    std::filesystem::remove(tmp, ec);
    return IoResult::Error("short write to " + tmp);
  }
  if (IoResult r = util::CommitStagedFile(tmp, path); !r.ok) return r;
  GORDER_OBS_INC(c_ordering_write);
  return IoResult::Ok();
}

}  // namespace gorder::store
