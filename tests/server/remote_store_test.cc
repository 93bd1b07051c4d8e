// Server/client integration over real loopback TCP: session mapping,
// pipelined scan streaming (multi-batch, early exit, connection reuse),
// failure degradation, and concurrent clients. Contract-level behavior is
// covered by the conformance suite's RemoteLiveGraph backend; these tests
// pin the network-specific mechanics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "baselines/linked_list_store.h"
#include "baselines/livegraph_store.h"
#include "server/graph_server.h"
#include "server/loopback.h"
#include "server/net.h"
#include "server/protocol.h"
#include "server/remote_store.h"
#include "server/wire.h"
#include "util/metrics.h"

namespace livegraph {
namespace {

GraphOptions SmallGraphOptions() {
  GraphOptions options;
  options.region_reserve = size_t{1} << 30;
  options.max_vertices = 1 << 18;
  return options;
}

// Engine + server + connected client, with a tiny scan batch budget so
// even short adjacency lists stream across several frames.
struct Harness {
  explicit Harness(size_t scan_batch_edges = 4) {
    engine = std::make_unique<LiveGraphStore>(SmallGraphOptions());
    GraphServer::Options options;
    options.scan_batch_edges = scan_batch_edges;
    // CI hook: LG_TEST_REACTORS pins the event-loop count (the tsan job
    // runs these integration tests at 2); unset keeps the default.
    if (const char* env = std::getenv("LG_TEST_REACTORS")) {
      options.reactors = std::atoi(env);
    }
    server = std::make_unique<GraphServer>(*engine, options);
    EXPECT_TRUE(server->Start());
    client = RemoteStore::Connect("127.0.0.1", server->port());
    EXPECT_NE(client, nullptr);
  }
  ~Harness() {
    client.reset();
    server->Stop();
  }

  std::unique_ptr<Store> engine;
  std::unique_ptr<GraphServer> server;
  std::unique_ptr<RemoteStore> client;
};

// Raw protocol socket after a successful Hello handshake.
Socket RawHello(uint16_t port) {
  Socket sock = ConnectTcp("127.0.0.1", port);
  EXPECT_TRUE(sock.valid());
  sock.SetRecvTimeout(10'000);
  std::string body;
  WireWriter(&body).PutU32(kProtocolVersion);
  std::string scratch;
  EXPECT_TRUE(sock.WriteFrame(MsgType::kHello, kFlagNone, body, &scratch));
  Frame reply;
  EXPECT_TRUE(sock.ReadFrame(&reply));
  return sock;
}

std::string TxnBody(uint64_t txn_id) {
  std::string body;
  WireWriter(&body).PutU64(txn_id);
  return body;
}

bool Send(Socket& sock, MsgType type, uint8_t flags, std::string_view body) {
  std::string scratch;
  return sock.WriteFrame(type, flags, body, &scratch);
}

Status ReplyStatus(const Frame& frame) {
  WireReader reader(frame.body);
  uint8_t wire = 0;
  return reader.GetU8(&wire) ? StatusFromWire(wire) : Status::kUnavailable;
}

TEST(RemoteStore, HandshakeReportsEngineNameAndTraits) {
  Harness harness;
  EXPECT_EQ(harness.client->Name(), "remote/LiveGraph");
  StoreTraits traits = harness.client->Traits();
  EXPECT_TRUE(traits.time_ordered_scans);
  EXPECT_TRUE(traits.snapshot_reads);
  EXPECT_TRUE(traits.transactional_writes);
  EXPECT_EQ(harness.client->BeginReadTxn()->SessionStatus(), Status::kOk);
}

TEST(RemoteStore, ConnectFailsAgainstClosedPort) {
  // Grab a port that is guaranteed closed by binding then releasing it.
  uint16_t dead_port = 0;
  {
    Socket listener = ListenTcp("127.0.0.1", 0, &dead_port);
    ASSERT_TRUE(listener.valid());
  }
  EXPECT_EQ(RemoteStore::Connect("127.0.0.1", dead_port), nullptr);
}

TEST(RemoteStore, WritesAreVisibleThroughTheEmbeddedEngine) {
  Harness harness;
  vertex_t id = harness.client->AddNode("over-the-wire");
  ASSERT_NE(id, kNullVertex);
  // The server applied it to the real engine: read it locally.
  StatusOr<std::string> local = harness.engine->GetNode(id);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(*local, "over-the-wire");
}

TEST(RemoteStore, ScanStreamsAcrossManyBatches) {
  Harness harness(/*scan_batch_edges=*/4);
  vertex_t hub = harness.client->AddNode("hub");
  std::vector<vertex_t> dsts;
  for (int i = 0; i < 23; ++i) {  // 23 edges / 4 per batch -> 6 frames
    vertex_t d = harness.client->AddNode("leaf");
    ASSERT_TRUE(
        harness.client->AddLink(hub, 0, d, "p" + std::to_string(i)).ok());
    dsts.push_back(d);
  }
  auto read = harness.client->BeginReadTxn();
  std::vector<vertex_t> scanned;
  std::vector<std::string> props;
  for (EdgeCursor c = read->ScanLinks(hub, 0); c.Valid(); c.Next()) {
    scanned.push_back(c.dst());
    props.push_back(std::string(c.properties()));
  }
  ASSERT_EQ(scanned.size(), 23u);
  // LiveGraph scans newest-first; properties must track their edges across
  // batch boundaries.
  for (size_t i = 0; i < scanned.size(); ++i) {
    size_t original = scanned.size() - 1 - i;
    EXPECT_EQ(scanned[i], dsts[original]);
    EXPECT_EQ(props[i], "p" + std::to_string(original));
  }
}

TEST(RemoteStore, EarlyExitScanLeavesConnectionUsable) {
  Harness harness(/*scan_batch_edges=*/4);
  vertex_t hub = harness.client->AddNode("hub");
  for (int i = 0; i < 40; ++i) {
    vertex_t d = harness.client->AddNode("leaf");
    ASSERT_TRUE(harness.client->AddLink(hub, 0, d, "x").ok());
  }
  auto read = harness.client->BeginReadTxn();
  {
    // Abandon the stream after 3 of ~10 batches.
    EdgeCursor cursor = read->ScanLinks(hub, 0);
    size_t seen = 0;
    for (; cursor.Valid() && seen < 3; cursor.Next()) seen++;
    EXPECT_EQ(seen, 3u);
  }
  // The same session (same connection) must keep working: the pending
  // batches are drained transparently before the next request.
  EXPECT_EQ(read->CountLinks(hub, 0), 40u);
  // And a fresh full scan still sees everything.
  size_t total = 0;
  for (EdgeCursor c = read->ScanLinks(hub, 0); c.Valid(); c.Next()) total++;
  EXPECT_EQ(total, 40u);
}

TEST(RemoteStore, NestedScansAndPointReadsInterleaveOnOneSession) {
  // SNB traversal shape: an outer cursor with point reads and nested
  // scans issued mid-stream on the same session. The outer stream's
  // pending batches must be parked, not lost.
  Harness harness(/*scan_batch_edges=*/2);  // force many in-flight frames
  vertex_t hub = harness.client->AddNode("hub");
  std::vector<vertex_t> mids;
  for (int m = 0; m < 9; ++m) {
    vertex_t mid = harness.client->AddNode("mid" + std::to_string(m));
    ASSERT_TRUE(harness.client->AddLink(hub, 0, mid, "hm").ok());
    for (int l = 0; l < 5; ++l) {
      vertex_t leaf = harness.client->AddNode("leaf");
      ASSERT_TRUE(harness.client->AddLink(mid, 1, leaf, "ml").ok());
    }
    mids.push_back(mid);
  }
  auto read = harness.client->BeginReadTxn();
  size_t outer_count = 0;
  for (EdgeCursor outer = read->ScanLinks(hub, 0); outer.Valid();
       outer.Next()) {
    outer_count++;
    // Point read mid-stream.
    StatusOr<std::string> props = read->GetNode(outer.dst());
    ASSERT_TRUE(props.ok());
    EXPECT_EQ(props->substr(0, 3), "mid");
    // Nested scan mid-stream.
    size_t inner_count = 0;
    for (EdgeCursor inner = read->ScanLinks(outer.dst(), 1); inner.Valid();
         inner.Next()) {
      inner_count++;
      EXPECT_EQ(inner.properties(), "ml");
    }
    EXPECT_EQ(inner_count, 5u);
  }
  EXPECT_EQ(outer_count, 9u);
}

TEST(RemoteStore, ScanLimitIsEnforcedServerSide) {
  Harness harness(/*scan_batch_edges=*/4);
  vertex_t hub = harness.client->AddNode("hub");
  for (int i = 0; i < 30; ++i) {
    vertex_t d = harness.client->AddNode("leaf");
    ASSERT_TRUE(harness.client->AddLink(hub, 0, d, "x").ok());
  }
  auto read = harness.client->BeginReadTxn();
  size_t yielded = 0;
  for (EdgeCursor c = read->ScanLinks(hub, 0, 7); c.Valid(); c.Next()) {
    yielded++;
  }
  EXPECT_EQ(yielded, 7u);
  EXPECT_FALSE(read->ScanLinks(hub, 0, 0).Valid());
  EXPECT_FALSE(read->ScanLinks(hub, 99).Valid());  // empty list
}

TEST(RemoteStore, SessionsReuseConnectionsFromThePool) {
  Harness harness;
  for (int i = 0; i < 8; ++i) {
    auto txn = harness.client->BeginTxn();
    ASSERT_TRUE(txn->AddNode("n").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  // Sequential sessions ride one pooled connection — no dial per session.
  EXPECT_EQ(harness.client->idle_connections(), 1u);
}

TEST(RemoteStore, OpsAfterServerStopReportUnavailable) {
  Harness harness;
  vertex_t id = harness.client->AddNode("n");
  ASSERT_NE(id, kNullVertex);
  harness.server->Stop();
  // New sessions cannot dial; their operations degrade to kUnavailable
  // (and RunWrite-backed wrappers surface failure without retry storms).
  auto txn = harness.client->BeginTxn();
  EXPECT_EQ(txn->AddNode("x").status(), Status::kUnavailable);
  EXPECT_EQ(txn->Commit().status(), Status::kUnavailable);
  EXPECT_EQ(harness.client->GetNode(id).status(), Status::kUnavailable);
  // Status-less reads (CountLinks, ScanLinks) expose the dead connection
  // through SessionStatus, so drivers can count the op as failed.
  auto read = harness.client->BeginReadTxn();
  EXPECT_EQ(read->CountLinks(id, 0), 0u);
  EXPECT_EQ(read->SessionStatus(), Status::kUnavailable);
}

TEST(RemoteStore, GarbageBytesTearDownTheConnectionNotTheServer) {
  Harness harness;
  // A raw socket spews non-protocol bytes: the server must drop that
  // connection (CRC/magic guard) and keep serving others.
  Socket raw = ConnectTcp("127.0.0.1", harness.server->port());
  ASSERT_TRUE(raw.valid());
  std::string garbage(64, '\xEE');
  // The write itself may race the server's hang-up; only the outcome
  // (connection closed, server alive) is asserted.
  raw.WriteFull(garbage.data(), garbage.size());
  char byte;
  EXPECT_FALSE(raw.ReadFull(&byte, 1)) << "server should hang up";
  // The real client still works.
  EXPECT_NE(harness.client->AddNode("still-alive"), kNullVertex);
}

TEST(RemoteStore, DroppedConnectionAbortsOpenTransactions) {
  Harness harness;
  vertex_t id = harness.client->AddNode("base");
  {
    // Speak the protocol over a raw socket so the connection can vanish
    // mid-transaction with no polite Abort on the wire.
    Socket raw = ConnectTcp("127.0.0.1", harness.server->port());
    ASSERT_TRUE(raw.valid());
    std::string scratch;
    auto call = [&](MsgType type, const std::string& body, Frame* reply) {
      return raw.WriteFrame(type, kFlagNone, body, &scratch) &&
             raw.ReadFrame(reply);
    };
    std::string body;
    WireWriter hello(&body);
    hello.PutU32(kProtocolVersion);
    Frame reply;
    ASSERT_TRUE(call(MsgType::kHello, body, &reply));

    constexpr uint64_t txn_id = 1;
    body.clear();
    WireWriter(&body).PutU64(txn_id);
    ASSERT_TRUE(call(MsgType::kBeginTxn, body, &reply));
    WireReader reader(reply.body);
    uint8_t status;
    ASSERT_TRUE(reader.GetU8(&status));
    ASSERT_EQ(StatusFromWire(status), Status::kOk);
    ASSERT_TRUE(reader.Exhausted());

    body.clear();
    WireWriter add(&body);
    add.PutU64(txn_id);
    add.PutI64(id);
    add.PutU16(0);
    add.PutI64(id);
    add.PutBytes("staged");
    ASSERT_TRUE(call(MsgType::kAddLink, body, &reply));
    // Socket closes here — no Commit, no Abort frame.
  }
  // Server-side session cleanup aborted the staged write.
  for (int i = 0; i < 100; ++i) {  // connection teardown is asynchronous
    if (harness.server->active_connections() <= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(harness.engine->GetLink(id, 0, id).status(), Status::kNotFound);
}

// --- Protocol v4: lazily opened sessions ---------------------------------

TEST(RemoteStore, DuplicateBeginIdClosesTheConnection) {
  Harness harness;
  Socket raw = RawHello(harness.server->port());
  std::string body = TxnBody(5);
  WireWriter(&body).PutBytes("node");
  Frame reply;
  ASSERT_TRUE(Send(raw, MsgType::kAddNode, kFlagBeginWrite, body));
  ASSERT_TRUE(raw.ReadFrame(&reply));
  EXPECT_EQ(ReplyStatus(reply), Status::kOk);
  // Id 5 is open: a second begin under it is a protocol violation.
  Send(raw, MsgType::kAddNode, kFlagBeginWrite, body);
  EXPECT_FALSE(raw.ReadFrame(&reply)) << "server should hang up";
  EXPECT_NE(harness.client->AddNode("still-alive"), kNullVertex);
}

TEST(RemoteStore, BeginFlagWithoutTxnIdClosesTheConnection) {
  Harness harness;
  Frame reply;
  {
    Socket raw = ConnectTcp("127.0.0.1", harness.server->port());
    ASSERT_TRUE(raw.valid());
    raw.SetRecvTimeout(10'000);
    std::string hello;
    WireWriter(&hello).PutU32(kProtocolVersion);
    Send(raw, MsgType::kHello, kFlagBeginRead, hello);
    EXPECT_FALSE(raw.ReadFrame(&reply)) << "flagged Hello must close";
  }
  {
    Socket raw = RawHello(harness.server->port());
    Send(raw, MsgType::kStats, kFlagBeginRead, "");
    EXPECT_FALSE(raw.ReadFrame(&reply)) << "flagged Stats must close";
  }
  EXPECT_NE(harness.client->AddNode("still-alive"), kNullVertex);
}

TEST(RemoteStore, EndReadIsOneWayEvenForUnknownIds) {
  Harness harness;
  Socket raw = RawHello(harness.server->port());
  ASSERT_TRUE(Send(raw, MsgType::kEndRead, kFlagNone, TxnBody(99)));
  // The next request is answered, and its reply is the first frame back.
  ASSERT_TRUE(
      Send(raw, MsgType::kVertexCount, kFlagBeginRead, TxnBody(1)));
  Frame reply;
  ASSERT_TRUE(raw.ReadFrame(&reply));
  EXPECT_EQ(reply.type, MsgType::kReply);
  EXPECT_EQ(ReplyStatus(reply), Status::kOk);
  EXPECT_EQ(reply.body.size(), 1u + 8u);  // status + i64 vertex count
  // Ending session 1 is silent too; the session is gone afterwards.
  ASSERT_TRUE(Send(raw, MsgType::kEndRead, kFlagNone, TxnBody(1)));
  ASSERT_TRUE(Send(raw, MsgType::kVertexCount, kFlagNone, TxnBody(1)));
  ASSERT_TRUE(raw.ReadFrame(&reply));
  EXPECT_EQ(ReplyStatus(reply), Status::kNotActive);
}

TEST(RemoteStore, SessionsThatSendNothingLeaveNoServerState) {
  Harness harness;
  metrics::Snapshot before, after;
  ASSERT_TRUE(harness.client->Stats(&before));
  {
    auto read = harness.client->BeginReadTxn();
    auto write = harness.client->BeginTxn();
    auto pipeline = harness.client->NewPipeline();
    EXPECT_TRUE(pipeline->ok());
  }
  ASSERT_TRUE(harness.client->Stats(&after));
  EXPECT_EQ(after.gauge("livegraph_server_open_txns"), 0);
  EXPECT_EQ(after.gauge("livegraph_epoch_read_pins"), 0);
  for (const char* kind : {"read", "write"}) {
    std::string name = std::string("livegraph_server_sessions_opened_total"
                                   "{kind=\"") + kind + "\"}";
    EXPECT_EQ(after.counter(name), before.counter(name)) << kind;
  }
}

// --- The commit fence ------------------------------------------------------

TEST(RemoteStore, FenceKeepsLaterCommitsOutOfAnUnsentWriteSession) {
  Harness harness;
  vertex_t a = harness.client->AddNode("a");
  vertex_t b = harness.client->AddNode("b");
  ASSERT_TRUE(harness.client->AddLink(a, 0, b, "old").ok());
  auto txn = harness.client->BeginTxn();
  const uint64_t fenced = harness.client->fenced_begins();
  // Store-level commits on other connections while `txn` has sent nothing:
  // the first one's fence opens `txn` on the server, as embedded
  // LiveGraph's BeginTxn would have.
  ASSERT_TRUE(harness.client->AddLink(a, 0, a, "new-edge").ok());
  ASSERT_EQ(harness.client->UpdateNode(a, "a2"), Status::kOk);
  EXPECT_EQ(harness.client->fenced_begins(), fenced + 1);
  EXPECT_EQ(*txn->GetNode(a), "a");
  EXPECT_EQ(txn->CountLinks(a, 0), 1u);
  EXPECT_EQ(txn->GetLink(a, 0, a).status(), Status::kNotFound);
  txn->Abort();
  auto fresh = harness.client->BeginReadTxn();
  EXPECT_EQ(*fresh->GetNode(a), "a2");
  EXPECT_EQ(fresh->CountLinks(a, 0), 2u);
}

TEST(RemoteStore, FenceKeepsLaterCommitsOutOfAFirstScan) {
  Harness harness(/*scan_batch_edges=*/2);  // several frames in flight
  vertex_t hub = harness.client->AddNode("hub");
  for (int i = 0; i < 9; ++i) {
    vertex_t leaf = harness.client->AddNode("leaf");
    ASSERT_TRUE(harness.client->AddLink(hub, 0, leaf, "old").ok());
  }
  auto read = harness.client->BeginReadTxn();
  EdgeCursor cursor = read->ScanLinks(hub, 0);  // the session's first request
  ASSERT_TRUE(cursor.Valid());
  ASSERT_TRUE(harness.client->AddLink(hub, 0, hub, "new").ok());
  size_t seen = 0;
  for (; cursor.Valid(); cursor.Next()) {
    EXPECT_EQ(cursor.properties(), "old");
    ++seen;
  }
  EXPECT_EQ(seen, 9u);
  EXPECT_EQ(read->CountLinks(hub, 0), 9u);
}

// Four clients run a DFLT-like mix (reads, scans, and contended writes on
// a few hot vertices) through one RemoteStore, some sessions pausing before
// their first request so commit fences find them unsent. The fence never
// waits on another session's request, so no write rides to the engine's
// lock timeout, nothing hangs, and every read session stays a snapshot.
TEST(RemoteStore, FencedCommitsUnderConcurrentMixNeverTimeOut) {
  Harness harness;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 300;
  constexpr int kVertices = 32;
  std::vector<vertex_t> ids;
  for (int i = 0; i < kVertices; ++i) {
    ids.push_back(harness.client->AddNode("v"));
  }
  std::atomic<int> timeouts{0}, unavailable{0}, torn{0};
  auto note = [&](Status status) {
    if (status == Status::kTimeout) timeouts.fetch_add(1);
    if (status == Status::kUnavailable) unavailable.fetch_add(1);
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(static_cast<uint32_t>(t) + 1);
      auto pick = [&] {
        // Half the picks land on 4 hot vertices: lock contention.
        return ids[rng() % 2 == 0 ? rng() % 4 : rng() % kVertices];
      };
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint32_t dice = rng() % 100;
        const bool pause = rng() % 4 == 0;
        if (dice < 30) {
          const vertex_t src = pick();
          const vertex_t dst = pick();
          note(RunWrite(*harness.client, [&](StoreTxn& txn) -> Status {
            if (pause) std::this_thread::yield();
            if (dice < 20) return txn.AddLink(src, 0, dst, "e").status();
            return txn.UpdateNode(src, "u");
          }));
          continue;
        }
        auto read = harness.client->BeginReadTxn();
        if (pause) std::this_thread::yield();
        const vertex_t v = pick();
        if (dice < 60) {
          note(read->GetNode(v).status());
        } else {
          const size_t count = read->CountLinks(v, 0);
          size_t scanned = 0;
          for (EdgeCursor c = read->ScanLinks(v, 0); c.Valid(); c.Next()) {
            ++scanned;
          }
          if (scanned != count) torn.fetch_add(1);
        }
        note(read->SessionStatus());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(timeouts.load(), 0);
  EXPECT_EQ(unavailable.load(), 0);
  EXPECT_EQ(torn.load(), 0);
}

TEST(RemoteStore, ConcurrentClientsCommitIndependently) {
  Harness harness;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        auto txn = harness.client->BeginTxn();
        StatusOr<vertex_t> added = txn->AddNode("c");
        if (!added.ok() || !txn->Commit().ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  auto read = harness.client->BeginReadTxn();
  EXPECT_GE(read->VertexCount(), vertex_t{kThreads * kOpsPerThread});
}

TEST(LoopbackStore, WrapsAnyEngine) {
  auto loopback = MakeLoopbackStore(std::make_unique<LinkedListStore>());
  ASSERT_NE(loopback, nullptr);
  EXPECT_EQ(loopback->Name(), "remote/LinkedList");
  EXPECT_FALSE(loopback->Traits().snapshot_reads);
  vertex_t a = loopback->AddNode("a");
  vertex_t b = loopback->AddNode("b");
  ASSERT_TRUE(loopback->AddLink(a, 3, b, "edge").ok());
  StatusOr<std::string> out = loopback->GetLink(a, 3, b);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "edge");
  EXPECT_EQ(loopback->CountLinks(a, 3), 1u);
}

}  // namespace
}  // namespace livegraph
