#include "graph/edgelist_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "extmem/ext_csr.h"
#include "gen/generators.h"
#include "store/gpack.h"
#include "test_util.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace gorder {
namespace {

class IoTest : public ::testing::Test {
 protected:
  std::string Path(const std::string& name) { return tmp_.Path(name); }

  void WriteFile(const std::string& name, const std::string& content) {
    std::ofstream out(Path(name), std::ios::binary);
    out << content;
  }

  const ScopedTempDir tmp_;
};

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST_F(IoTest, TextRoundTrip) {
  Rng rng(1);
  Graph g = gen::ErdosRenyi(50, 200, rng);
  ASSERT_TRUE(WriteEdgeList(Path("g.txt"), g).ok);
  Graph h;
  ASSERT_TRUE(ReadEdgeList(Path("g.txt"), &h).ok);
  EXPECT_EQ(g.ToEdges(), h.ToEdges());
}

TEST_F(IoTest, SkipsCommentsAndBlankLines) {
  WriteFile("c.txt", "# snap comment\n% konect comment\n\n0 1\n  1 2\n");
  Graph g;
  ASSERT_TRUE(ReadEdgeList(Path("c.txt"), &g).ok);
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 2u);

  // CRLF endings, a blank CRLF line and trailing blanks at EOF.
  WriteFile("crlf.txt", "0 1\r\n\r\n1 2\r\n   ");
  ASSERT_TRUE(ReadEdgeList(Path("crlf.txt"), &g).ok);
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 2));
}

TEST_F(IoTest, TabSeparatedAccepted) {
  WriteFile("t.txt", "0\t5\n5\t2\n");
  Graph g;
  ASSERT_TRUE(ReadEdgeList(Path("t.txt"), &g).ok);
  EXPECT_EQ(g.NumNodes(), 6u);
  EXPECT_TRUE(g.HasEdge(0, 5));
}

TEST_F(IoTest, LongLinesParsedCorrectly) {
  // The old fgets(256)-based reader silently split lines longer than 255
  // bytes: the tail of a long comment came back as a second "line" and
  // could be parsed as a bogus edge. Build a file where every failure
  // mode of that reader is present.
  std::string content;
  content += "# long comment " + std::string(300, 'x') + " 7 8\n";
  content += "0" + std::string(300, ' ') + "1\n";      // huge gap
  content += "1 2" + std::string(300, ' ') + "\n";     // long tail
  content += "2 3";                                    // no trailing newline
  WriteFile("long.txt", content);
  Graph g;
  ASSERT_TRUE(ReadEdgeList(Path("long.txt"), &g).ok);
  EXPECT_EQ(g.NumEdges(), 3u);
  // The comment tail (" 7 8") must not have become an edge or grown the
  // node count past the real ids 0..3.
  EXPECT_EQ(g.NumNodes(), 4u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(2, 3));
}

TEST_F(IoTest, MalformedLongLineReportsRightLineNumber) {
  std::string content = "0 1\n# " + std::string(500, 'c') + "\nbogus\n";
  WriteFile("longbad.txt", content);
  Graph g;
  IoResult r = ReadEdgeList(Path("longbad.txt"), &g);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find(":3"), std::string::npos) << r.error;
}

TEST_F(IoTest, MalformedLineRejectedWithLineNumber) {
  WriteFile("bad.txt", "0 1\nnot an edge\n");
  Graph g;
  IoResult r = ReadEdgeList(Path("bad.txt"), &g);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find(":2"), std::string::npos) << r.error;
}

TEST_F(IoTest, MissingFileRejected) {
  Graph g;
  EXPECT_FALSE(ReadEdgeList(Path("missing.txt"), &g).ok);
}

TEST_F(IoTest, HugeNodeIdRejected) {
  WriteFile("huge.txt", "0 99999999999999\n");
  Graph g;
  IoResult r = ReadEdgeList(Path("huge.txt"), &g);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("32-bit"), std::string::npos) << r.error;
}

// ---------------------------------------------------------------------------
// Grammar conformance: the in-memory reader (ReadEdgeList) and the
// out-of-core pack path (extmem::StreamEdgeListToPack) share one
// tokenizer, so they must agree on every input — same accept/reject,
// same "path:LINE: kind" error, and on accept a byte-identical pack.

struct GrammarCase {
  const char* name;
  std::string content;
  int error_line;           // 0: accepted
  const char* error_kind;   // substring of the error when rejected
};

std::vector<GrammarCase> GrammarCases() {
  const std::string pad(300, ' ');
  std::string deep;  // > 1 read buffer and many chunks before the error
  for (int i = 0; i < 300000; ++i) {
    deep += std::to_string(i % 977) + ' ' + std::to_string(i % 499) + '\n';
  }
  std::string deep_bad = deep + "7 x\n";
  return {
      {"crlf", "0 1\r\n1 2\r\n2 0\r\n", 0, nullptr},
      {"crlf_blank_line", "0 1\r\n\r\n1 2\r\n", 0, nullptr},
      {"lone_crlf", "\r\n", 0, nullptr},
      {"trailing_blanks_no_newline", "0 1\n1 2\n   ", 0, nullptr},
      {"no_final_newline", "0 1\n1 2", 0, nullptr},
      {"tabs", "0\t1\n\t1 \t2\n", 0, nullptr},
      {"comments", "# snap\n% konect\n0 1\n  # indented\n\t% too\n1 2\n", 0,
       nullptr},
      {"trailing_junk", "0 1 junk\n1 2 3 4\n2 0\tx\n", 0, nullptr},
      {"long_lines", "# " + std::string(300, 'x') + " 7 8\n0" + pad +
                         "1\n1 2" + pad + "\n" + pad + "\n",
       0, nullptr},
      {"nul_line", std::string("\0 junk\n0 1\n", 11), 0, nullptr},
      {"self_loops_only", "3 3\n", 0, nullptr},
      {"empty", "", 0, nullptr},
      {"comments_only", "# nothing here\n", 0, nullptr},
      {"leading_zeros", "0 007\n0007 0\n", 0, nullptr},
      {"multi_buffer", deep, 0, nullptr},
      {"long_comment_2mib", "# " + std::string(2u << 20, 'x') + "\n0 1\n", 0,
       nullptr},
      {"malformed", "0 1\n1 2\nnot an edge\n2 3\n", 3, "malformed edge line"},
      {"one_id", "0 1\n5\n", 2, "malformed edge line"},
      {"one_id_at_eof", "0 1\n5", 2, "malformed edge line"},
      {"negative_id", "-1 2\n", 1, "malformed edge line"},
      {"float_id", "0 1\n3.5 2\n", 2, "malformed edge line"},
      {"crlf_then_bad", "0 1\r\n\r\nx\r\n", 3, "malformed edge line"},
      {"id_2pow32", "0 1\n0 4294967296\n", 2, "node id out of 32-bit range"},
      {"id_2pow32_minus_1", "4294967295 0\n", 1,
       "node id out of 32-bit range"},
      {"id_overflow", "0 99999999999999999999999\n", 1,
       "node id out of 32-bit range"},
      {"error_after_many_buffers", deep_bad, 300001, "malformed edge line"},
  };
}

TEST_F(IoTest, GrammarConformanceInMemoryVsPack) {
  const int saved_threads = NumThreads();
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    for (const GrammarCase& c : GrammarCases()) {
      SCOPED_TRACE(std::string(c.name) + " @" + std::to_string(threads));
      const std::string txt = Path(std::string(c.name) + ".txt");
      const std::string ext_pack = Path(std::string(c.name) + ".ext.gpack");
      const std::string mem_pack = Path(std::string(c.name) + ".mem.gpack");
      WriteFile(std::string(c.name) + ".txt", c.content);

      Graph g;
      const IoResult mem = ReadEdgeList(txt, &g);
      const IoResult ext = extmem::StreamEdgeListToPack(txt, ext_pack);
      ASSERT_EQ(mem.ok, c.error_line == 0) << mem.error;
      ASSERT_EQ(ext.ok, mem.ok) << ext.error;
      if (!mem.ok) {
        const std::string where =
            txt + ":" + std::to_string(c.error_line) + ": ";
        EXPECT_EQ(mem.error.rfind(where, 0), 0u) << mem.error;
        EXPECT_NE(mem.error.find(c.error_kind), std::string::npos)
            << mem.error;
        EXPECT_EQ(ext.error, mem.error);
        EXPECT_FALSE(std::filesystem::exists(ext_pack));
        continue;
      }
      ASSERT_TRUE(store::WritePack(mem_pack, g).ok);
      EXPECT_TRUE(ReadAll(ext_pack) == ReadAll(mem_pack))
          << "extmem pack differs from WritePack(ReadEdgeList(...))";
    }
  }
  SetNumThreads(saved_threads);
}

// The bounded read buffer grows for long lines up to a 64 MiB ceiling;
// a line past it fails with its line number instead of growing without
// bound.
TEST_F(IoTest, LineOverCeilingFailsCleanly) {
  {
    std::ofstream out(Path("huge_line.txt"), std::ios::binary);
    out << "0 1\n# ";
    const std::string block(1u << 20, 'x');
    for (int i = 0; i < 65; ++i) out << block;
    out << "\n1 2\n";
  }
  const std::string path = Path("huge_line.txt");
  Graph g;
  const IoResult mem = ReadEdgeList(path, &g);
  ASSERT_FALSE(mem.ok);
  EXPECT_EQ(mem.error, path + ":2: line exceeds 67108864 bytes");
  const IoResult ext =
      extmem::StreamEdgeListToPack(path, Path("huge_line.gpack"));
  ASSERT_FALSE(ext.ok);
  EXPECT_EQ(ext.error, mem.error);
}

TEST_F(IoTest, BinaryRoundTrip) {
  Rng rng(2);
  Graph g = gen::BarabasiAlbert(200, 3, rng);
  ASSERT_TRUE(WriteBinary(Path("g.bin"), g).ok);
  Graph h;
  ASSERT_TRUE(ReadBinary(Path("g.bin"), &h).ok);
  EXPECT_EQ(g.ToEdges(), h.ToEdges());
  EXPECT_EQ(g.NumNodes(), h.NumNodes());
}

TEST_F(IoTest, BinaryBadMagicRejected) {
  WriteFile("junk.bin", "this is not a graph file at all");
  Graph g;
  IoResult r = ReadBinary(Path("junk.bin"), &g);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("magic"), std::string::npos) << r.error;
}

TEST_F(IoTest, BinaryTruncatedRejected) {
  Rng rng(3);
  Graph g = gen::ErdosRenyi(100, 500, rng);
  ASSERT_TRUE(WriteBinary(Path("full.bin"), g).ok);
  // Truncate the file to cut into the neighbour array.
  auto size = std::filesystem::file_size(Path("full.bin"));
  std::filesystem::resize_file(Path("full.bin"), size / 2);
  Graph h;
  EXPECT_FALSE(ReadBinary(Path("full.bin"), &h).ok);
}

// Regression: the header's node/edge counts are attacker-controlled and
// used to size allocations. A crafted header with m near 2^62 used to
// ask std::vector for a multi-exabyte buffer before any other check ran
// (bad_alloc at best, OOM-killed test runner at worst); both counts must
// be bounded against the actual file size before anything is allocated.
TEST_F(IoTest, BinaryCraftedHeaderCountsRejectedBeforeAllocating) {
  auto write_header = [&](const std::string& name, std::uint64_t n,
                          std::uint64_t m) {
    std::ofstream out(Path(name), std::ios::binary);
    out.write("GORDER01", 8);
    out.write(reinterpret_cast<const char*>(&n), sizeof n);
    out.write(reinterpret_cast<const char*>(&m), sizeof m);
    // A sliver of payload so the file is not just a truncated header.
    const std::uint64_t zero = 0;
    out.write(reinterpret_cast<const char*>(&zero), sizeof zero);
  };
  Graph g;
  write_header("huge_m.bin", 0, std::uint64_t{1} << 61);
  IoResult r = ReadBinary(Path("huge_m.bin"), &g);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("implausible"), std::string::npos) << r.error;

  write_header("huge_n.bin", 0xFFFFFFFFULL, 0);
  r = ReadBinary(Path("huge_n.bin"), &g);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("implausible"), std::string::npos) << r.error;

  write_header("too_big_n.bin", std::uint64_t{1} << 33, 0);
  EXPECT_FALSE(ReadBinary(Path("too_big_n.bin"), &g).ok);
}

// The writers stage to a temp file and rename into place; a successful
// write must leave exactly the final file, no `.tmp.*` debris.
TEST_F(IoTest, WritersLeaveNoStagingDebris) {
  Rng rng(4);
  Graph g = gen::BarabasiAlbert(50, 2, rng);
  ASSERT_TRUE(WriteEdgeList(Path("clean.txt"), g).ok);
  ASSERT_TRUE(WriteBinary(Path("clean.bin"), g).ok);
  for (const auto& entry : std::filesystem::directory_iterator(tmp_.path())) {
    EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
        << entry.path();
  }
}

TEST_F(IoTest, EmptyGraphRoundTrips) {
  Graph g;
  ASSERT_TRUE(WriteBinary(Path("empty.bin"), g).ok);
  Graph h = Graph::FromEdges(3, {{0, 1}});  // overwritten below
  ASSERT_TRUE(ReadBinary(Path("empty.bin"), &h).ok);
  EXPECT_EQ(h.NumNodes(), 0u);
  EXPECT_EQ(h.NumEdges(), 0u);
}

}  // namespace
}  // namespace gorder
