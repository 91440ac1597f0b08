// End-to-end behaviour of the gorderd server core (src/serve/server.h):
// every opcode against a live unix-socket server compared with direct
// library calls, every error status a client can provoke, admission
// control (deterministic kOverloaded via the execute hook), artifact
// hot-swap through the protocol, connection caps, tcp:0 ephemeral
// binding, and the shutdown handshake.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/gorder_lib.h"
#include "test_util.h"

namespace gorder::serve {
namespace {

namespace fs = std::filesystem;

util::NetAddress UnixAddr(const std::string& path) {
  util::NetAddress a;
  a.is_unix = true;
  a.path = path;
  return a;
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    sock_path_ = "/tmp/gorder_serve_" + std::to_string(::getpid()) + "_" +
                 info->name() + ".sock";
    graph_ = gen::MakeDataset("epinion", 0.05, 1);
  }

  void TearDown() override {
    if (server_) server_->Stop();
    std::error_code ec;
    fs::remove(sock_path_, ec);
  }

  /// Starts the server on the per-test unix socket; `graph_` stays
  /// usable as the library-side reference (the server gets a clone).
  void StartServer(ServerOptions opts = {}) {
    opts.listen = UnixAddr(sock_path_);
    server_ = std::make_unique<Server>(graph_.Clone(), opts);
    IoResult r = server_->Start();
    ASSERT_TRUE(r.ok) << r.error;
  }

  Client Connected() {
    Client client;
    IoResult r = client.Connect(UnixAddr(sock_path_), 30.0);
    EXPECT_TRUE(r.ok) << r.error;
    return client;
  }

  std::string sock_path_;
  Graph graph_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServeTest, PingCarriesEpochOne) {
  StartServer();
  Client client = Connected();
  Reply reply = client.Ping();
  EXPECT_TRUE(reply.ok()) << reply.error;
  EXPECT_EQ(reply.epoch, 1u);
  EXPECT_EQ(server_->Epoch(), 1u);
}

TEST_F(ServeTest, InfoMatchesGraph) {
  ServerOptions opts;
  opts.serve_threads = 3;
  StartServer(opts);
  Client client = Connected();
  InfoReply info = client.Info();
  ASSERT_TRUE(info.ok()) << info.error;
  EXPECT_EQ(info.num_nodes, graph_.NumNodes());
  EXPECT_EQ(info.num_edges, graph_.NumEdges());
  EXPECT_EQ(info.serve_threads, 3u);
  EXPECT_EQ(info.protocol_version, kProtocolVersion);
}

TEST_F(ServeTest, DegreeAndNeighborsMatchLibraryOnEveryNode) {
  StartServer();
  Client client = Connected();
  for (NodeId v = 0; v < graph_.NumNodes(); ++v) {
    DegreeReply d = client.Degree(v);
    ASSERT_TRUE(d.ok()) << d.error;
    EXPECT_EQ(d.out_degree, graph_.OutDegree(v)) << "node " << v;
    EXPECT_EQ(d.in_degree, graph_.InDegree(v)) << "node " << v;

    NeighborsReply n = client.Neighbors(v);
    ASSERT_TRUE(n.ok()) << n.error;
    auto expect = graph_.OutNeighbors(v);
    ASSERT_EQ(n.neighbors.size(), expect.size()) << "node " << v;
    EXPECT_TRUE(std::equal(expect.begin(), expect.end(),
                           n.neighbors.begin()))
        << "node " << v;
  }
}

TEST_F(ServeTest, BfsAndSpMatchLibrary) {
  StartServer();
  Client client = Connected();
  const NodeId n = graph_.NumNodes();
  for (NodeId src : {NodeId{0}, NodeId{1}, n / 2, n - 1}) {
    algo::BfsResult bl = algo::Bfs(graph_, src);
    BfsReply bw = client.Bfs(src);
    ASSERT_TRUE(bw.ok()) << bw.error;
    EXPECT_EQ(bw.num_reached, bl.num_reached) << "src " << src;
    EXPECT_EQ(bw.sum_levels, bl.sum_levels) << "src " << src;
    EXPECT_EQ(bw.level_hash, HashVector64(bl.level)) << "src " << src;

    algo::SpResult sl = algo::Sp(graph_, src);
    SpReply sw = client.Sp(src);
    ASSERT_TRUE(sw.ok()) << sw.error;
    EXPECT_EQ(sw.num_reached, sl.num_reached) << "src " << src;
    EXPECT_EQ(sw.max_dist, sl.max_dist) << "src " << src;
    EXPECT_EQ(sw.num_rounds, sl.num_rounds) << "src " << src;
    EXPECT_EQ(sw.dist_hash, HashVector64(sl.dist)) << "src " << src;
  }
}

TEST_F(ServeTest, PageRankTopKMatchesLibraryBitExactly) {
  StartServer();
  Client client = Connected();
  const std::uint32_t k = 10, iters = 5;
  PageRankTopKReply w = client.PageRankTopK(k, iters);
  ASSERT_TRUE(w.ok()) << w.error;

  algo::PageRankResult r = algo::PageRank(graph_, static_cast<int>(iters));
  EXPECT_EQ(w.total_mass, r.total_mass);  // bit-identical, not approximate
  const NodeId n = graph_.NumNodes();
  std::vector<NodeId> idx(n);
  for (NodeId v = 0; v < n; ++v) idx[v] = v;
  std::partial_sort(idx.begin(), idx.begin() + k, idx.end(),
                    [&r](NodeId a, NodeId b) {
                      if (r.rank[a] != r.rank[b]) return r.rank[a] > r.rank[b];
                      return a < b;
                    });
  ASSERT_EQ(w.top.size(), k);
  for (std::uint32_t i = 0; i < k; ++i) {
    EXPECT_EQ(w.top[i].first, idx[i]) << "rank " << i;
    EXPECT_EQ(w.top[i].second, r.rank[idx[i]]) << "rank " << i;
  }
}

TEST_F(ServeTest, OrderMatchesLocalComputeOrdering) {
  StartServer();
  Client client = Connected();
  // A small uploaded graph: binary-tree spine plus a few cross edges.
  std::vector<Edge> edges;
  for (NodeId v = 1; v < 40; ++v) edges.push_back({v / 2, v});
  edges.push_back({7, 3});
  edges.push_back({11, 39});
  const NodeId n = 40;
  for (const char* name : {"Gorder", "BOBA", "RCM"}) {
    order::Method method{};
    bool found = false;
    for (order::Method m : order::AllMethodsExtended()) {
      if (std::string(order::MethodName(m)) == name) {
        method = m;
        found = true;
      }
    }
    ASSERT_TRUE(found) << name;

    OrderReply w = client.Order(name, 123, n, edges);
    ASSERT_TRUE(w.ok()) << name << ": " << w.error;
    Graph uploaded = Graph::FromEdges(n, edges);
    order::OrderingParams params;
    params.seed = 123;
    EXPECT_EQ(w.perm, order::ComputeOrdering(uploaded, method, params))
        << name;
  }
}

TEST_F(ServeTest, ErrorStatusesCoverEveryFailureClass) {
  ServerOptions opts;
  opts.max_topk = 8;
  opts.max_iterations = 16;
  opts.max_order_nodes = 64;
  StartServer(opts);
  Client client = Connected();
  const NodeId n = graph_.NumNodes();

  // kBadRequest: node out of range, on every node-taking opcode.
  EXPECT_EQ(client.Degree(n).status, Status::kBadRequest);
  EXPECT_EQ(client.Neighbors(n + 5).status, Status::kBadRequest);
  EXPECT_EQ(client.Bfs(n).status, Status::kBadRequest);
  EXPECT_EQ(client.Sp(0xFFFFFFFFu).status, Status::kBadRequest);
  // kBadRequest: parameter caps.
  EXPECT_EQ(client.PageRankTopK(0, 5).status, Status::kBadRequest);
  EXPECT_EQ(client.PageRankTopK(9, 5).status, Status::kBadRequest);
  EXPECT_EQ(client.PageRankTopK(4, 0).status, Status::kBadRequest);
  EXPECT_EQ(client.PageRankTopK(4, 17).status, Status::kBadRequest);
  // kBadRequest: kOrder caps and validation.
  std::vector<Edge> edges = {{0, 1}};
  EXPECT_EQ(client.Order("Gorder", 1, 65, edges).status, Status::kBadRequest);
  EXPECT_EQ(client.Order("NoSuchMethod", 1, 4, edges).status,
            Status::kBadRequest);
  EXPECT_EQ(client.Order("Gorder", 1, 1, edges).status, Status::kBadRequest)
      << "edge endpoint out of range";
  // kInternal: swap to a path that cannot be loaded.
  Reply swap = client.SwapPack("/nonexistent/gorder.gpack");
  EXPECT_EQ(swap.status, Status::kInternal);
  EXPECT_FALSE(swap.error.empty());
  // kBadOpcode via a raw frame (the typed client cannot send one).
  std::string frame;
  PutU32(&frame, 12);
  PutU64(&frame, 9);
  PutU16(&frame, 999);
  PutU16(&frame, 0);
  EXPECT_EQ(client.Call(frame).status, Status::kBadOpcode);
  // kBadFrame via nonzero reserved bits.
  frame.clear();
  PutU32(&frame, 12);
  PutU64(&frame, 10);
  PutU16(&frame, 1);
  PutU16(&frame, 7);
  EXPECT_EQ(client.Call(frame).status, Status::kBadFrame);
  // Every error body carried a message; the stream survived it all.
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServeTest, NeighborCapAnswersTooLarge) {
  ServerOptions opts;
  opts.max_neighbors = 0;  // every non-isolated node trips the cap
  StartServer(opts);
  Client client = Connected();
  NodeId busiest = 0;
  for (NodeId v = 0; v < graph_.NumNodes(); ++v) {
    if (graph_.OutDegree(v) > graph_.OutDegree(busiest)) busiest = v;
  }
  ASSERT_GT(graph_.OutDegree(busiest), 0u);
  EXPECT_EQ(client.Neighbors(busiest).status, Status::kTooLarge);
  EXPECT_TRUE(client.Ping().ok());  // reply-side cap keeps the stream
}

TEST_F(ServeTest, SwapPackHotSwapsAtomically) {
  const ScopedTempDir tmp;
  const std::string dir = tmp.path().string();
  Graph next = gen::MakeDataset("epinion", 0.05, 2);
  const std::string pack_b = dir + "/b.gpack";
  ASSERT_TRUE(store::WritePack(pack_b, next).ok);

  StartServer();
  Client client = Connected();
  InfoReply before = client.Info();
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.epoch, 1u);
  EXPECT_EQ(before.num_edges, graph_.NumEdges());

  Reply swap = client.SwapPack(pack_b);
  ASSERT_TRUE(swap.ok()) << swap.error;
  EXPECT_EQ(swap.epoch, 2u);
  EXPECT_EQ(server_->Epoch(), 2u);

  // The same connection now serves the new snapshot, tagged epoch 2.
  InfoReply after = client.Info();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.epoch, 2u);
  EXPECT_EQ(after.num_nodes, next.NumNodes());
  EXPECT_EQ(after.num_edges, next.NumEdges());

  // A failed swap must not disturb the published snapshot.
  EXPECT_EQ(client.SwapPack(dir + "/missing.gpack").status, Status::kInternal);
  EXPECT_EQ(server_->Epoch(), 2u);
  EXPECT_EQ(client.Info().num_edges, next.NumEdges());
}

TEST_F(ServeTest, AdminOpcodesCanBeDisabled) {
  ServerOptions opts;
  opts.allow_swap = false;
  opts.allow_shutdown = false;
  StartServer(opts);
  Client client = Connected();
  EXPECT_EQ(client.SwapPack("/tmp/x.gpack").status, Status::kBadRequest);
  EXPECT_EQ(client.Shutdown().status, Status::kBadRequest);
  EXPECT_FALSE(server_->WaitForShutdown(0.05));  // nothing was requested
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServeTest, ShutdownOpcodeReleasesWaitForShutdown) {
  StartServer();
  Client client = Connected();
  EXPECT_FALSE(server_->WaitForShutdown(0.05));
  Reply reply = client.Shutdown();
  EXPECT_TRUE(reply.ok()) << reply.error;
  EXPECT_TRUE(server_->WaitForShutdown(30.0));
  server_->Stop();
  // After Stop the socket is gone; a new connect fails cleanly.
  Client late;
  EXPECT_FALSE(late.Connect(UnixAddr(sock_path_), 5.0).ok);
}

TEST_F(ServeTest, TcpEphemeralPortIsResolvable) {
  util::NetAddress addr;
  addr.host = "127.0.0.1";
  addr.port = 0;
  ServerOptions opts;
  opts.listen = addr;
  server_ = std::make_unique<Server>(graph_.Clone(), opts);
  ASSERT_TRUE(server_->Start().ok);
  const int port = server_->Port();
  ASSERT_GT(port, 0);
  addr.port = port;
  Client client;
  ASSERT_TRUE(client.Connect(addr, 30.0).ok);
  EXPECT_TRUE(client.Ping().ok());
  InfoReply info = client.Info();
  EXPECT_EQ(info.num_nodes, graph_.NumNodes());
}

TEST_F(ServeTest, ConnectionsOverTheCapAreRefusedCleanly) {
  ServerOptions opts;
  opts.max_connections = 1;
  StartServer(opts);
  Client first = Connected();
  ASSERT_TRUE(first.Ping().ok());
  // The second connect is accepted then dropped before the handshake
  // ack: Connect fails with a clean error, nothing hangs.
  Client second;
  IoResult r = second.Connect(UnixAddr(sock_path_), 5.0);
  EXPECT_FALSE(r.ok);
  // The admitted connection is unaffected.
  EXPECT_TRUE(first.Ping().ok());
}

TEST_F(ServeTest, QueueFullAnswersOverloadedDeterministically) {
  ServerOptions opts;
  opts.serve_threads = 1;
  opts.queue_capacity = 2;
  StartServer(opts);

  // Hold the single worker on a latch once it has dequeued the first
  // request; the queue then fills to exactly queue_capacity and every
  // further frame must be refused by the reader with kOverloaded.
  std::mutex mu;
  std::condition_variable cv;
  bool worker_entered = false;
  bool release = false;
  server_->SetExecuteHookForTest([&](const Request&) {
    std::unique_lock<std::mutex> lock(mu);
    worker_entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });

  util::Socket s;
  ASSERT_TRUE(util::ConnectSocket(UnixAddr(sock_path_), &s, 30.0).ok);
  std::string hello;
  AppendHandshake(&hello);
  ASSERT_TRUE(util::WriteFull(s, hello.data(), hello.size()).ok);
  char ack[kHandshakeBytes];
  ASSERT_TRUE(util::ReadFull(s, ack, sizeof(ack)).ok);

  auto send_ping = [&](std::uint64_t id) {
    Request req;
    req.id = id;
    req.opcode = Opcode::kPing;
    std::string frame;
    AppendRequest(&frame, req);
    ASSERT_TRUE(util::WriteFull(s, frame.data(), frame.size()).ok);
  };
  auto read_response = [&](ResponseHeader* header) {
    std::uint32_t len = 0;
    ASSERT_TRUE(util::ReadFull(s, &len, 4).ok);
    std::string payload(len, '\0');
    ASSERT_TRUE(util::ReadFull(s, payload.data(), len).ok);
    std::string full;
    PutU32(&full, len);
    full += payload;
    const std::byte* body = nullptr;
    std::size_t body_len = 0;
    std::string error;
    std::size_t consumed = 0;
    ASSERT_EQ(DecodeResponse(reinterpret_cast<const std::byte*>(full.data()),
                             full.size(), &consumed, header, &body, &body_len,
                             &error),
              DecodeResult::kOk)
        << error;
  };

  // Request 1 occupies the worker (we wait until it provably has).
  send_ping(1);
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return worker_entered; }));
  }
  // Requests 2..3 fill the queue; 4..8 must bounce off admission
  // control. The reader answers those immediately, in frame order.
  for (std::uint64_t id = 2; id <= 8; ++id) send_ping(id);
  for (std::uint64_t id = 4; id <= 8; ++id) {
    ResponseHeader header;
    read_response(&header);
    EXPECT_EQ(header.status, Status::kOverloaded) << "id " << header.id;
    EXPECT_EQ(header.id, id);
  }
  // Release the worker: the occupied + queued requests complete OK.
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  for (std::uint64_t id = 1; id <= 3; ++id) {
    ResponseHeader header;
    read_response(&header);
    EXPECT_EQ(header.status, Status::kOk) << "id " << header.id;
    EXPECT_EQ(header.id, id);
  }
}

// ---- Observability plane: kStats, admin HTTP, request tracing ----

/// One-shot HTTP/1.0 exchange against the admin listener: send `request`
/// verbatim, read until the server closes (Connection: close semantics).
std::string AdminHttp(int port, const std::string& request) {
  util::NetAddress addr;
  addr.host = "127.0.0.1";
  addr.port = port;
  util::Socket s;
  IoResult r = util::ConnectSocket(addr, &s, 30.0);
  EXPECT_TRUE(r.ok) << r.error;
  if (!r.ok) return "";
  EXPECT_TRUE(util::WriteFull(s, request.data(), request.size()).ok);
  std::string response;
  char buf[1024];
  for (;;) {
    std::size_t got = 0;
    if (!util::ReadSome(s, buf, sizeof buf, &got).ok || got == 0) break;
    response.append(buf, got);
  }
  return response;
}

TEST_F(ServeTest, StatsOpcodeReturnsParseableSnapshot) {
  StartServer();
  Client client = Connected();
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Degree(0).ok());
  StatsReply stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.error;
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(stats.json, &doc, &error)) << error;
  EXPECT_EQ(doc.Find("schema")->str, "gorder-stats");
  EXPECT_EQ(doc.U64("epoch"), 1u);
  EXPECT_EQ(doc.U64("connections"), 1u);
  const obs::JsonValue* counters = doc.Find("counters");
  ASSERT_NE(counters, nullptr);
  // The ping + degree (and this stats call) all counted as requests.
  EXPECT_GE(counters->U64("serve.requests"), 3u);
  ASSERT_NE(doc.Find("windows"), nullptr);
  if (obs::Enabled()) {
    EXPECT_NE(doc.Find("windows")->Find("serve.req_us.ping"), nullptr);
  }
}

TEST_F(ServeTest, AdminEndpointsServeMetricsHealthAndTraces) {
  ServerOptions opts;
  opts.admin_enabled = true;
  opts.admin_listen.host = "127.0.0.1";
  opts.admin_listen.port = 0;
  opts.trace_sample = 1;  // sample every request
  StartServer(opts);
  const int port = server_->AdminPort();
  ASSERT_GT(port, 0);

  Client client = Connected();
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Bfs(0).ok());

  std::string health = AdminHttp(port, "GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(health.find("HTTP/1.0 200"), std::string::npos) << health;
  EXPECT_NE(health.find("ok\n"), std::string::npos);

  std::string metrics = AdminHttp(port, "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(metrics.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("gorder_serve_requests_total"), std::string::npos);
  if (obs::Enabled()) {
    EXPECT_NE(metrics.find("gorder_serve_req_us_ping"), std::string::npos);
  }

  std::string tracez = AdminHttp(port, "GET /tracez HTTP/1.0\r\n\r\n");
  EXPECT_NE(tracez.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(tracez.find("application/json"), std::string::npos);
  const std::size_t body_at = tracez.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(tracez.substr(body_at + 4), &doc, &error))
      << error;
  EXPECT_EQ(doc.Find("schema")->str, "gorder-tracez");
  if (obs::Enabled()) {
    // trace_sample=1: the ping and bfs above are both in the ring.
    EXPECT_GE(doc.U64("total_pushed"), 2u);
    ASSERT_FALSE(doc.Find("records")->array.empty());
  }

  // Unknown path and non-GET get clean errors, and the daemon survives.
  EXPECT_NE(AdminHttp(port, "GET /nope HTTP/1.0\r\n\r\n").find("404"),
            std::string::npos);
  EXPECT_NE(AdminHttp(port, "POST /metrics HTTP/1.0\r\n\r\n").find("405"),
            std::string::npos);
  EXPECT_NE(AdminHttp(port, "garbage\r\n\r\n").find("400"),
            std::string::npos);
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServeTest, AdminListenerStopsWithServer) {
  ServerOptions opts;
  opts.admin_enabled = true;
  opts.admin_listen.host = "127.0.0.1";
  opts.admin_listen.port = 0;
  StartServer(opts);
  const int port = server_->AdminPort();
  ASSERT_GT(port, 0);
  server_->Stop();
  util::NetAddress addr;
  addr.host = "127.0.0.1";
  addr.port = port;
  util::Socket s;
  EXPECT_FALSE(util::ConnectSocket(addr, &s, 2.0).ok);
}

}  // namespace
}  // namespace gorder::serve
