// RemoteStore: the client side of the graph-server protocol, implementing
// the same Store/StoreTxn/StoreReadTxn surface as the embedded engines —
// so every driver, bench, example, and the conformance suite runs
// unmodified against a LiveGraph across the network (docs/SERVER.md).
//
// Model: a RemoteStore owns a pool of TCP connections. Each session
// (BeginTxn / BeginReadTxn) checks a connection out of the pool for its
// lifetime — requests within a session are strictly ordered, which is what
// gives remote sessions the same semantics as local ones — and returns it
// on Commit/Abort/EndRead.
//
// Sessions open lazily (protocol v4, docs/SERVER.md "Session model"):
// Begin*Txn picks the txn id and sends nothing; the session's first
// request carries a begin flag and opens it on the server, and a read
// session ends with a one-way kEndRead — a single-op read costs one round
// trip plus one send. A session that sends no request sends nothing at
// all. The snapshot is therefore taken at the first request, with one
// guarantee kept: before any session of this store sends a commit, the
// commit fence opens every other session of the store whose begin has not
// yet reached the server, so a commit made after Begin*Txn returned never
// enters that session's snapshot. Replica read sessions (below) keep their
// begin round trip.
//
// Scans arrive as the server's pipelined batch stream; the cursor handed
// to the caller is EdgeCursor in chunked mode, pulling one batch at a
// time, so neither side ever materializes a long adjacency list.
// Interleaved access — a nested scan or point read issued while a cursor
// is mid-stream, as SNB traversals do — parks the live
// stream's remaining frames into a client-side buffer so the outer cursor
// keeps its position; an abandoned stream (LIMIT-style early exit, cursor
// destroyed) is drained and discarded before the connection carries the
// next request.
//
// Failures degrade to Status::kUnavailable: a dead connection fails the
// session's remaining operations immediately (RunWrite deliberately does
// not retry kUnavailable) and is dropped from the pool instead of being
// returned.
#ifndef LIVEGRAPH_SERVER_REMOTE_STORE_H_
#define LIVEGRAPH_SERVER_REMOTE_STORE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "api/store.h"

namespace livegraph {

namespace metrics {
struct Snapshot;
}  // namespace metrics

enum class MsgType : uint8_t;  // server/protocol.h

class RemoteStore : public Store {
 public:
  /// One pooled protocol connection (defined in remote_store.cc; public
  /// only so the chunked-cursor batch source can hold one).
  class Connection;

  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    /// Read scale-out (docs/REPLICATION.md): when `replica_port` is set,
    /// read sessions dial this follower with kBeginReadTxnAt, carrying the
    /// session's last observed commit epoch — read-your-epoch: the
    /// follower blocks (bounded) until its applied frontier covers that
    /// epoch, so this client's own writes are always visible. Writes
    /// always go to `host:port`. A dead or lagging follower fails the
    /// read session over to the primary transparently (one retry, capped
    /// backoff before the follower is dialed again).
    std::string replica_host = "127.0.0.1";
    uint16_t replica_port = 0;
    /// Bound on the follower-side frontier wait before failing over.
    uint32_t read_your_epoch_timeout_ms = 2000;
    /// First follower-redial backoff after a failover; doubles, capped.
    int64_t replica_backoff_ms = 100;
    int64_t replica_backoff_cap_ms = 5000;
    /// Per-operation socket deadline (SO_RCVTIMEO/SO_SNDTIMEO) on every
    /// dialed connection: a hung server fails the call with kUnavailable
    /// instead of wedging the client thread. Must comfortably exceed the
    /// server-side epoch-gated read wait (read_your_epoch_timeout_ms).
    /// 0 disables.
    int64_t io_timeout_ms = 30'000;
  };

  /// Dials the server and performs the version/traits handshake. Null if
  /// the server is unreachable or speaks an incompatible protocol.
  static std::unique_ptr<RemoteStore> Connect(const Options& options);
  static std::unique_ptr<RemoteStore> Connect(const std::string& host,
                                              uint16_t port) {
    return Connect(Options{host, port});
  }

  ~RemoteStore() override;

  /// "remote/" + the server engine's name.
  std::string Name() const override { return "remote/" + remote_name_; }
  /// The server engine's traits, learned at handshake: a remote MVCC
  /// snapshot is still a snapshot, so conformance asserts the same
  /// strengths over the wire.
  StoreTraits Traits() const override { return traits_; }

  std::unique_ptr<StoreTxn> BeginTxn() override;
  std::unique_ptr<StoreReadTxn> BeginReadTxn() override;

  /// Client-side request pipelining over one pooled connection, the
  /// client knob for the server's in-connection pipelining (docs/SERVER.md
  /// "Event loop"): queue mutations locally, then Flush() ships every
  /// queued frame in one send and reads the replies in order — K ops cost
  /// one round trip instead of K. A pipeline owns a private server-side
  /// write transaction; Commit() flushes whatever is queued, then commits.
  /// Flush chunks very large batches (a bounded number of request bytes
  /// per send) so the reply backlog can never deadlock against the
  /// server's per-connection output backpressure.
  class Pipeline {
   public:
    ~Pipeline();
    Pipeline(const Pipeline&) = delete;
    Pipeline& operator=(const Pipeline&) = delete;

    /// False when the session could not be opened or the transport died;
    /// every further call fails with kUnavailable.
    bool ok() const { return open_; }

    // Queue mutations (no I/O until Flush/Commit).
    void AddNode(std::string_view data);
    void UpdateNode(vertex_t id, std::string_view data);
    void DeleteNode(vertex_t id);
    void AddLink(vertex_t src, label_t label, vertex_t dst,
                 std::string_view data);
    void UpdateLink(vertex_t src, label_t label, vertex_t dst,
                    std::string_view data);
    void DeleteLink(vertex_t src, label_t label, vertex_t dst);
    size_t pending() const { return ends_.size(); }

    /// Ships every queued request, reads the replies in order. When
    /// `statuses` is non-null it receives one Status per queued op (queue
    /// order). False on transport failure (the session is dead).
    bool Flush(std::vector<Status>* statuses = nullptr);
    /// Flush + commit the underlying transaction.
    StatusOr<timestamp_t> Commit();
    /// Flush-discarding abort; the connection returns to the pool.
    void Abort();

   private:
    friend class RemoteStore;
    Pipeline(RemoteStore* store, std::shared_ptr<Connection> connection,
             uint64_t txn_id);

    void Queue(MsgType type, std::string_view body);
    /// Returns the (healthy) connection to the pool.
    void Release();

    RemoteStore* store_;
    std::shared_ptr<Connection> connection_;
    uint64_t txn_id_ = 0;
    bool open_ = false;
    std::string batch_;          // queued frames, already encoded
    std::vector<size_t> ends_;   // cumulative end offset of each frame
  };

  /// Opens a pipeline; no I/O — the first flushed request opens the
  /// server-side session. Never null; a pipeline that could not get a
  /// connection has ok() false.
  std::unique_ptr<Pipeline> NewPipeline();

  /// Fetches the server's metrics snapshot via the STATS opcode
  /// (docs/OBSERVABILITY.md), using a pooled connection. False on I/O
  /// failure, a non-kOk reply, or an undecodable payload.
  bool Stats(metrics::Snapshot* out);

  /// Pooled idle connections (observability, tests).
  size_t idle_connections() const;

  /// Read sessions that fell over from the follower to the primary
  /// (observability, tests).
  uint64_t read_failovers() const {
    return read_failovers_.load(std::memory_order_relaxed);
  }
  /// Highest commit epoch observed by this client's write sessions — the
  /// read-your-epoch bound carried to the follower.
  timestamp_t last_commit_epoch() const {
    return last_commit_epoch_.load(std::memory_order_relaxed);
  }
  /// Explicit begins the commit fence sent for sessions whose first
  /// request had not left yet (observability, tests).
  uint64_t fenced_begins() const {
    return fenced_begins_.load(std::memory_order_relaxed);
  }
  /// Commits the fence turned into kConflict aborts because a begin
  /// stayed unanswered past kFenceWaitMs (remote_store.cc).
  uint64_t fence_aborts() const {
    return fence_aborts_.load(std::memory_order_relaxed);
  }

 private:
  friend class RemoteTxn;

  explicit RemoteStore(Options options) : options_(std::move(options)) {}

  std::shared_ptr<Connection> AcquireConnection(bool replica);
  void ReleaseConnection(std::shared_ptr<Connection> connection,
                         bool replica);
  std::unique_ptr<StoreTxn> BeginSession(bool writable);
  /// Follower-first read session; null means "use the primary".
  std::unique_ptr<StoreTxn> BeginReplicaReadSession();
  /// The commit fence, run before a commit on `committer` is sent. False
  /// means the commit must not be sent: abort and report kConflict.
  bool FenceSessions(const Connection* committer);
  void NoteCommitEpoch(timestamp_t epoch);
  /// True while the follower is in its post-failover penalty box.
  bool ReplicaBackedOff();
  void NoteReplicaFailure();

  Options options_;
  std::string remote_name_;
  StoreTraits traits_;

  std::atomic<timestamp_t> last_commit_epoch_{0};
  std::atomic<uint64_t> read_failovers_{0};
  std::atomic<uint64_t> fenced_begins_{0};
  std::atomic<uint64_t> fence_aborts_{0};
  /// Client-chosen txn ids: unique across the store, hence per connection.
  std::atomic<uint64_t> next_txn_id_{1};

  mutable std::mutex pool_mu_;
  std::vector<std::shared_ptr<Connection>> pool_;
  std::vector<std::shared_ptr<Connection>> replica_pool_;
  /// Connections owned by a session (or a Stats call): the fence's scope.
  std::vector<std::shared_ptr<Connection>> checked_out_;
  std::chrono::steady_clock::time_point replica_retry_at_{};
  int64_t replica_backoff_ms_ = 0;
};

}  // namespace livegraph

#endif  // LIVEGRAPH_SERVER_REMOTE_STORE_H_
