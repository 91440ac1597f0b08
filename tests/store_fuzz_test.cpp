// Adversarial robustness tests for the gpack/gperm loaders: corrupt,
// truncated, or random input must always produce a clean error (or, for
// bytes the format does not cover, an identical graph) — never a crash,
// an abort, or an out-of-bounds read. CI runs this suite under
// AddressSanitizer, which turns any stray read into a hard failure.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/gorder_lib.h"
#include "test_util.h"

namespace gorder {
namespace {

namespace fs = std::filesystem;

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// All load entry points must agree that the file either fails cleanly
/// or yields a fully valid graph. Returns true if the pack loaded.
bool ProbeAllLoaders(const std::string& path) {
  Graph g1;
  IoResult mm = store::LoadPack(path, &g1, store::LoadMode::kMmap);
  Graph g2;
  IoResult cp = store::LoadPack(path, &g2, store::LoadMode::kCopy);
  EXPECT_EQ(mm.ok, cp.ok) << "mmap and copy loaders disagree";
  if (!mm.ok) {
    EXPECT_FALSE(mm.error.empty());
    EXPECT_FALSE(cp.error.empty());
  } else {
    // If it loads at all, the graph must be internally consistent enough
    // to traverse without faulting.
    std::uint64_t checksum = 0;
    for (NodeId v = 0; v < g1.NumNodes(); ++v) {
      for (NodeId u : g1.OutNeighbors(v)) checksum += u;
    }
    (void)checksum;
  }
  store::GpackInfo info;
  (void)store::ReadPackInfo(path, &info);
  (void)store::VerifyPack(path);
  return mm.ok;
}

Graph SmallGraph() { return gen::MakeDataset("epinion", 0.05, 13); }

// Flip every byte in the header + section-table region, one at a time.
// Each flip must either be caught (clean error) or — only for bytes the
// format genuinely does not interpret — load the identical graph.
TEST(GpackFuzz, HeaderAndTableBitFlips) {
  const ScopedTempDir dir;
  Graph g = SmallGraph();
  const std::string tmp = dir.Path("hdrflip.gpack");
  ASSERT_TRUE(store::WritePack(tmp, g).ok);
  const std::vector<char> orig = ReadAll(tmp);
  ASSERT_GT(orig.size(), 192u);

  // 64-byte header + 4 * 32-byte section entries.
  const std::size_t cover = 64 + 4 * 32;
  int caught = 0;
  for (std::size_t i = 0; i < cover; ++i) {
    std::vector<char> mut = orig;
    mut[i] = static_cast<char>(mut[i] ^ 0xFF);
    WriteAll(tmp, mut);
    Graph loaded;
    IoResult r = store::LoadPack(tmp, &loaded);
    if (r.ok) {
      // Unchecked byte: must be content-neutral.
      EXPECT_EQ(g.out_offsets(), loaded.out_offsets()) << "byte " << i;
      EXPECT_EQ(g.out_neighbors(), loaded.out_neighbors()) << "byte " << i;
    } else {
      EXPECT_FALSE(r.error.empty()) << "byte " << i;
      ++caught;
    }
  }
  // The header CRC covers the whole region, so essentially every flip
  // must be caught (the only benign flips would be in padding the CRC
  // also covers — i.e. none).
  EXPECT_EQ(caught, static_cast<int>(cover));
  WriteAll(tmp, orig);
  EXPECT_TRUE(store::VerifyPack(tmp).ok);
}

// Payload corruption is caught by the per-section CRCs: flip one byte in
// the middle of every section.
TEST(GpackFuzz, PayloadBitFlipsAreCaughtBySectionCrcs) {
  const ScopedTempDir dir;
  Graph g = SmallGraph();
  const std::string tmp = dir.Path("payload.gpack");
  ASSERT_TRUE(store::WritePack(tmp, g).ok);
  const std::vector<char> orig = ReadAll(tmp);
  store::GpackInfo info;
  ASSERT_TRUE(store::ReadPackInfo(tmp, &info).ok);
  for (const auto& sec : info.sections) {
    if (sec.bytes == 0) continue;
    SCOPED_TRACE(sec.name);
    std::vector<char> mut = orig;
    mut[sec.offset + sec.bytes / 2] ^= 0x01;
    WriteAll(tmp, mut);
    Graph loaded;
    IoResult r = store::LoadPack(tmp, &loaded);
    EXPECT_FALSE(r.ok);
    if (!r.ok) EXPECT_FALSE(r.error.empty());
  }
}

// Truncate at and around every section boundary, plus a byte-resolution
// sweep over the first 256 bytes.
TEST(GpackFuzz, TruncationNeverCrashes) {
  const ScopedTempDir dir;
  Graph g = SmallGraph();
  const std::string tmp = dir.Path("trunc.gpack");
  ASSERT_TRUE(store::WritePack(tmp, g).ok);
  const std::vector<char> orig = ReadAll(tmp);
  store::GpackInfo info;
  ASSERT_TRUE(store::ReadPackInfo(tmp, &info).ok);

  std::vector<std::size_t> cuts = {0, 1, 63, 64, 65, 191, 192, 193,
                                   orig.size() - 1};
  for (const auto& sec : info.sections) {
    cuts.push_back(sec.offset);
    cuts.push_back(sec.offset + 1);
    if (sec.bytes > 0) {
      cuts.push_back(sec.offset + sec.bytes - 1);
      cuts.push_back(sec.offset + sec.bytes);
    }
  }
  for (std::size_t cut : cuts) {
    if (cut >= orig.size()) continue;
    SCOPED_TRACE(cut);
    WriteAll(tmp,
             std::vector<char>(orig.begin(), orig.begin() + cut));
    EXPECT_FALSE(ProbeAllLoaders(tmp));
  }
}

TEST(GpackFuzz, WrongMagicAndVersionAreRejected) {
  const ScopedTempDir dir;
  Graph g = SmallGraph();
  const std::string tmp = dir.Path("magic.gpack");
  ASSERT_TRUE(store::WritePack(tmp, g).ok);
  std::vector<char> orig = ReadAll(tmp);

  {
    std::vector<char> mut = orig;
    mut[0] = 'X';  // magic
    WriteAll(tmp, mut);
    Graph loaded;
    IoResult r = store::LoadPack(tmp, &loaded);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("magic"), std::string::npos) << r.error;
  }
  {
    std::vector<char> mut = orig;
    mut[8] = static_cast<char>(store::kGpackFormatVersion + 1);  // version
    WriteAll(tmp, mut);
    Graph loaded;
    IoResult r = store::LoadPack(tmp, &loaded);
    EXPECT_FALSE(r.ok);
    // A future format version must name the mismatch, not "corrupt".
    EXPECT_NE(r.error.find("version"), std::string::npos) << r.error;
  }
}

// A crafted pack whose num_edges makes `m * sizeof(NodeId)` wrap to 0
// (and whose neighbor sections are shrunk to zero bytes with the
// matching CRC of the empty string) must be rejected by the edge-count
// plausibility guard, *before* any payload is inspected. Without the
// guard the wrapped expected size matches the zero-length sections,
// every header-level check passes, and the CSR scan reads past the
// mapping — plain-mmap out-of-bounds that not even ASan reliably
// flags (adjacent mappings absorb the reads), hence the assertion on
// the specific rejection reason rather than on a crash.
TEST(GpackFuzz, HugeEdgeCountCannotWrapSectionSizeValidation) {
  const ScopedTempDir dir;
  Graph g = SmallGraph();
  const std::string tmp = dir.Path("overflow.gpack");
  ASSERT_TRUE(store::WritePack(tmp, g).ok);
  const std::vector<char> orig = ReadAll(tmp);
  ASSERT_GT(orig.size(), 192u);  // 64-byte header + 4 * 32-byte entries

  auto refresh_header_crc = [](std::vector<char>& bytes) {
    // header_crc (offset 52) covers the 64-byte header with the field
    // zeroed, then the section table.
    std::uint32_t zero = 0;
    std::memcpy(bytes.data() + 52, &zero, sizeof zero);
    std::uint32_t crc = Crc32(bytes.data(), 64);
    crc = Crc32(bytes.data() + 64, 4 * 32, crc);
    std::memcpy(bytes.data() + 52, &crc, sizeof crc);
  };

  store::GpackInfo info;
  ASSERT_TRUE(store::ReadPackInfo(tmp, &info).ok);

  for (std::uint64_t m :
       {std::uint64_t{1} << 62, std::uint64_t{1} << 63, ~std::uint64_t{0}}) {
    SCOPED_TRACE(m);
    std::vector<char> mut = orig;
    std::memcpy(mut.data() + 32, &m, sizeof m);  // header num_edges
    for (std::size_t i = 0; i < info.sections.size(); ++i) {
      const auto& sec = info.sections[i];
      char* entry = mut.data() + 64 + i * 32;
      const bool neighbors = sec.id == 2 || sec.id == 4;
      if (neighbors) {
        // Shrink the neighbor section to zero bytes *at end of file*;
        // CRC32 of the empty string is 0 and a zero-length extent at
        // `size` passes the bounds check, so with a wrapped expected
        // size these sections would pass every header-level check and
        // the CSR scan's very first neighbor reads would land past the
        // mapping.
        const std::uint64_t eof = orig.size();
        const std::uint64_t no_bytes = 0;
        const std::uint32_t empty_crc = 0;
        std::memcpy(entry + 8, &eof, sizeof eof);               // offset
        std::memcpy(entry + 16, &no_bytes, sizeof no_bytes);    // bytes
        std::memcpy(entry + 24, &empty_crc, sizeof empty_crc);  // crc32
      } else {
        // Rewrite the offsets payload to [0, m, m, ...] (with a fresh
        // section CRC) so the CSR scan, if reached, would walk neighbor
        // indices up to m — far past the mapping.
        auto* off = reinterpret_cast<std::uint64_t*>(mut.data() + sec.offset);
        for (std::size_t k = 1; k < sec.bytes / sizeof(std::uint64_t); ++k) {
          off[k] = m;
        }
        const std::uint32_t crc = Crc32(mut.data() + sec.offset,
                                        static_cast<std::size_t>(sec.bytes));
        std::memcpy(entry + 24, &crc, sizeof crc);
      }
    }
    refresh_header_crc(mut);
    WriteAll(tmp, mut);
    Graph loaded;
    IoResult r = store::LoadPack(tmp, &loaded);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("implausible"), std::string::npos) << r.error;
    EXPECT_FALSE(ProbeAllLoaders(tmp));
  }
}

TEST(GpackFuzz, RandomByteStreamsNeverCrash) {
  const ScopedTempDir dir;
  const std::string tmp = dir.Path("random.gpack");
  Rng rng(2026);
  for (int trial = 0; trial < 50; ++trial) {
    std::size_t len = 1 + static_cast<std::size_t>(rng.Uniform(4096));
    std::vector<char> bytes(len);
    for (auto& b : bytes) b = static_cast<char>(rng.NextU32() & 0xFF);
    // Seed some trials with the real magic so parsing gets past byte 8.
    if (trial % 3 == 0 && len >= 8) {
      std::memcpy(bytes.data(), "GPACKBIN", 8);
    }
    WriteAll(tmp, bytes);
    EXPECT_FALSE(ProbeAllLoaders(tmp));
  }
}

TEST(GpackFuzz, MissingFileIsACleanError) {
  const ScopedTempDir dir;
  Graph g;
  IoResult r = store::LoadPack(dir.Path("nonexistent.gpack"), &g);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
  EXPECT_FALSE(store::VerifyPack(dir.Path("nonexistent.gpack")).ok);
}

// .gperm artifacts: corruption in any byte must degrade to a cache miss,
// never a crash or a bogus permutation.
TEST(GpermFuzz, CorruptArtifactsAreMisses) {
  const ScopedTempDir dir;
  const std::string root = dir.Path("store");
  store::Store s(root);
  Graph g = SmallGraph();
  const auto fp = store::GraphFingerprint(g);
  order::OrderingParams params;
  auto perm = order::ComputeOrdering(g, order::Method::kRcm, params);
  ASSERT_TRUE(s.SaveOrdering(fp, order::Method::kRcm, params, perm, 0.1).ok);

  const std::string path = s.OrderingPath(fp, order::Method::kRcm, params);
  ASSERT_TRUE(fs::exists(path));
  const std::vector<char> orig = ReadAll(path);

  store::Store::CachedOrdering out;
  // Flip every byte of the header and a sample of the payload.
  for (std::size_t i = 0; i < orig.size(); i += (i < 56 ? 1 : 97)) {
    std::vector<char> mut = orig;
    mut[i] = static_cast<char>(mut[i] ^ 0xFF);
    WriteAll(path, mut);
    EXPECT_FALSE(s.LoadOrdering(fp, order::Method::kRcm, params,
                                g.NumNodes(), &out))
        << "byte " << i;
  }
  // Truncations.
  for (std::size_t cut : {std::size_t{0}, std::size_t{10}, std::size_t{55},
                          orig.size() - 4}) {
    WriteAll(path, std::vector<char>(orig.begin(), orig.begin() + cut));
    EXPECT_FALSE(s.LoadOrdering(fp, order::Method::kRcm, params,
                                g.NumNodes(), &out))
        << "cut " << cut;
  }
  // Restoring the original bytes restores the hit.
  WriteAll(path, orig);
  EXPECT_TRUE(
      s.LoadOrdering(fp, order::Method::kRcm, params, g.NumNodes(), &out));
  EXPECT_EQ(out.perm, perm);
}

// An artifact whose payload is a valid CRC-match but not a permutation
// (duplicate ids) must be rejected by the semantic check.
TEST(GpermFuzz, NonPermutationPayloadIsRejected) {
  const ScopedTempDir dir;
  const std::string root = dir.Path("store");
  store::Store s(root);
  Graph g = SmallGraph();
  const auto fp = store::GraphFingerprint(g);
  order::OrderingParams params;

  std::vector<NodeId> bogus(g.NumNodes(), 0);  // all map to node 0
  ASSERT_TRUE(s.SaveOrdering(fp, order::Method::kLdg, params, bogus, 0.1).ok);
  store::Store::CachedOrdering out;
  EXPECT_FALSE(s.LoadOrdering(fp, order::Method::kLdg, params, g.NumNodes(),
                              &out));
}

}  // namespace
}  // namespace gorder
