// ServerSession: one wire-protocol session — the transaction table and
// every request handler — decoupled from its transport.
//
// Both server frontends speak through this class. The legacy blocking mode
// (thread per connection) wraps a socket in a Sink that writes frames
// synchronously and never throttles, so every Handle() call completes
// inline. The reactor (server/reactor.h) wraps its per-connection output
// queue instead and runs with `offload` set, which surfaces the three
// places a handler would otherwise block the event loop as explicit
// outcomes the caller schedules around:
//
//   kScanPaused   a streaming scan hit output backpressure mid-list; the
//                 cursor (and the engine read session it borrows from)
//                 stays parked in the session until ResumeScan().
//   kCommitAsync  a write commit would futex-wait on group durability;
//                 TakePendingCommit() hands the StoreTxn to a worker
//                 thread, whose result comes back through FinishCommit().
//   kWaitAsync    an epoch-gated read (kBeginReadTxnAt) must wait for the
//                 frontier; a worker runs the wait and reports through
//                 FinishEpochWait().
//   kMutateAsync  a lock-acquiring mutation (link/node write) can
//                 futex-wait up to the engine's deadlock-avoidance
//                 timeout — and the lock's holder may be ANOTHER
//                 connection on the same event loop, whose releasing
//                 Commit frame would then never dispatch, turning every
//                 contended wait into a guaranteed timeout. The staged op
//                 (TakePendingMutation) runs on a worker via
//                 ExecuteMutation(); FinishMutation() restores the
//                 transaction and queues the reply.
//
// While any of these is outstanding the caller must not Handle() further
// frames on the connection — replies are strictly in request order, which
// is what makes client-side pipelining safe.
//
// Sessions open lazily (protocol v4): the client picks each txn id, and a
// request carrying a begin flag opens the engine session under that id
// before it runs. kEndRead is one-way: Handle() queues nothing for it.
//
// kSubscribe is answered with Outcome::kSubscribe without touching the
// frame: replication push streams are long-lived write-mostly loops that
// belong on a dedicated blocking thread, so the transport hands the socket
// (and the frame) to GraphServer's subscription path instead.
#ifndef LIVEGRAPH_SERVER_SESSION_H_
#define LIVEGRAPH_SERVER_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "api/store.h"
#include "server/protocol.h"
#include "server/wire.h"

namespace livegraph {

class EpochFrontier;

class ServerSession {
 public:
  /// Where replies go. Implementations must be cheap: the blocking server
  /// writes straight to its socket; the reactor appends to a bounded
  /// per-connection output queue.
  class Sink {
   public:
    virtual ~Sink() = default;
    /// Queues/writes one reply frame. False means the connection is dead;
    /// the session stops producing and the caller tears down.
    virtual bool SendFrame(MsgType type, uint8_t flags,
                          std::string_view body) = 0;
    /// True when the transport wants the producer to pause (output
    /// backlog above high water). Only consulted between scan batches.
    virtual bool throttled() const { return false; }
  };

  enum class Outcome {
    kDone,         // request handled, replies queued
    kClose,        // protocol violation or dead sink: close the connection
    kScanPaused,   // scan parked on backpressure; ResumeScan() when clear
    kCommitAsync,  // TakePendingCommit() -> worker -> FinishCommit()
    kWaitAsync,    // pending_wait() -> worker -> FinishEpochWait()
    kMutateAsync,  // TakePendingMutation() -> worker -> FinishMutation()
    kSubscribe,    // hand the socket to a blocking replication thread
  };

  struct Config {
    Store* store = nullptr;
    /// Scan batches flush at whichever budget fills first.
    size_t scan_batch_edges = 512;
    size_t scan_batch_bytes = 60 * 1024;
    /// Epoch-gated reads (kBeginReadTxnAt); null rejects positive bounds.
    EpochFrontier* frontier = nullptr;
    /// Reactor mode: blocking work (commit durability waits, frontier
    /// waits) returns the async outcomes instead of running inline.
    bool offload = false;
  };

  explicit ServerSession(const Config& config);
  ~ServerSession();
  ServerSession(const ServerSession&) = delete;
  ServerSession& operator=(const ServerSession&) = delete;

  /// Handles one request frame end to end (per-opcode accounting
  /// included). See Outcome for the non-inline results.
  Outcome Handle(const Frame& request, Sink* sink);

  /// Continues the parked streaming scan. Precondition: scan_paused().
  Outcome ResumeScan(Sink* sink);
  bool scan_paused() const { return scan_.has_value(); }

  // --- Async commit (Outcome::kCommitAsync) ---

  struct PendingCommit {
    std::unique_ptr<StoreTxn> txn;
    uint64_t start_nanos = 0;
  };
  /// Transfers the committing transaction to the worker. The transaction
  /// is already detached from this thread (api/store.h "Cross-thread
  /// hand-off"); the worker calls AttachToThread(), then Commit().
  PendingCommit TakePendingCommit();
  /// Queues the commit reply (worker's result), on the transport thread.
  Outcome FinishCommit(StatusOr<timestamp_t> committed, Sink* sink);

  // --- Async epoch wait (Outcome::kWaitAsync) ---

  struct PendingWait {
    uint64_t txn_id = 0;
    int64_t min_epoch = 0;
    uint32_t timeout_ms = 0;
    uint64_t start_nanos = 0;
  };
  const PendingWait& pending_wait() const { return pending_wait_; }
  /// Queues the kBeginReadTxnAt reply: opens the read session if the
  /// worker reported the frontier covered, kTimeout otherwise.
  Outcome FinishEpochWait(bool covered, Sink* sink);

  // --- Async mutation (Outcome::kMutateAsync) ---

  /// A staged lock-acquiring mutation, carrying its (detached) write
  /// transaction to the worker and back. `src` doubles as the vertex id
  /// for node ops.
  struct PendingMutation {
    std::unique_ptr<StoreTxn> txn;
    uint64_t txn_id = 0;
    MsgType op = MsgType::kReply;
    int64_t src = 0;
    int64_t dst = 0;
    uint16_t label = 0;
    std::string data;
    uint64_t start_nanos = 0;
  };
  struct MutationResult {
    Status status = Status::kUnavailable;
    bool inserted = false;  // kAddLink only
  };
  /// Transfers the staged mutation (transaction included, already
  /// detached) to the worker.
  PendingMutation TakePendingMutation();
  /// Runs the staged op against its transaction — on the worker thread,
  /// with the transaction attached there.
  static MutationResult ExecuteMutation(StoreTxn& txn,
                                        const PendingMutation& mutation);
  /// Back on the transport thread: re-attaches and restores the
  /// transaction into the session table, queues the reply.
  Outcome FinishMutation(PendingMutation mutation, MutationResult result,
                         Sink* sink);

  /// Open transactions (the global open-txns gauge tracks the sum).
  size_t open_txns() const { return txns_.size(); }
  /// Open WRITE transactions, a staged (offloaded) mutation's included —
  /// the transport's input for the mutation-offload hint below.
  size_t open_write_txns() const { return open_writes_; }
  /// Transport hint, consulted by StageMutation: false lets mutations run
  /// inline on the event loop. The reactor clears it only when no OTHER
  /// connection on the same loop holds an open write transaction — then
  /// any vertex-lock holder lives on a loop that stays live to dispatch
  /// its releasing Commit, so an inline wait cannot self-deadlock and the
  /// two thread hand-offs are pure overhead.
  void set_offload_mutations(bool offload) { offload_mutations_ = offload; }

 private:
  /// A slot in the session's transaction table. Write sessions serve
  /// reads too (read-your-writes); read sessions reject mutations.
  struct OpenTxn {
    std::unique_ptr<StoreTxn> write;
    std::unique_ptr<StoreReadTxn> read;
    StoreReadTxn* AsRead() const {
      return write != nullptr ? write.get() : read.get();
    }
  };

  /// A streaming scan parked between batches. Holds the live engine
  /// cursor; the read session it borrows from is pinned in txns_ (the
  /// caller defers any further frames until the scan finishes, so the
  /// session cannot be ended under the cursor).
  struct ActiveScan {
    EdgeCursor cursor;
    uint32_t batch_count = 0;
    /// Parked right after a budget flush: ResumeScan() must step the
    /// cursor past the already-shipped edge before continuing.
    bool advance_pending = false;
    uint64_t start_nanos = 0;
  };

  Outcome DispatchInner(const Frame& request, Sink* sink);
  /// Opens the session a begin-flagged request names. False is a protocol
  /// violation (see kFlagBeginRead).
  bool OpenFlaggedSession(const Frame& request);
  /// Opens an engine session under the client's id; false if it is taken.
  bool OpenSession(uint64_t id, bool write);

  // Reply plumbing: start a body with its status byte, append payload
  // through the returned writer, then SendReply().
  WireWriter BeginReply(Status status);
  bool SendReply(Sink* sink, uint8_t flags = kFlagNone);
  Outcome ReplyStatus(Sink* sink, Status status, uint8_t flags = kFlagNone);

  Outcome HandleHello(WireReader& reader, Sink* sink);
  Outcome HandleBegin(WireReader& reader, Sink* sink, bool write);
  Outcome HandleCommit(WireReader& reader, Sink* sink);
  Outcome HandleAbort(WireReader& reader, Sink* sink);
  Outcome HandleEndRead(WireReader& reader, Sink* sink);
  Outcome HandleGetNode(WireReader& reader, Sink* sink);
  Outcome HandleGetLink(WireReader& reader, Sink* sink);
  Outcome HandleScanLinks(WireReader& reader, Sink* sink);
  Outcome HandleCountLinks(WireReader& reader, Sink* sink);
  Outcome HandleVertexCount(WireReader& reader, Sink* sink);
  Outcome HandleBeginReadTxnAt(WireReader& reader, Sink* sink);
  Outcome HandleStats(WireReader& reader, Sink* sink);
  Outcome HandleAddNode(WireReader& reader, Sink* sink);
  Outcome HandleUpdateNode(WireReader& reader, Sink* sink);
  Outcome HandleDeleteNode(WireReader& reader, Sink* sink);
  Outcome HandleAddLink(WireReader& reader, Sink* sink, bool upsert);
  Outcome HandleDeleteLink(WireReader& reader, Sink* sink);

  StoreReadTxn* FindRead(uint64_t id);
  StoreTxn* FindWrite(uint64_t id);

  /// Offload-mode gate for the lock-acquiring mutations: when the engine
  /// supports thread hand-off, stages the op (detaching its transaction)
  /// and returns true — the handler then returns kMutateAsync. False
  /// means run it inline.
  bool StageMutation(uint64_t txn_id, MsgType op, int64_t src,
                     uint16_t label, int64_t dst, std::string_view data);

  /// Walks the parked cursor, flushing batches until done or throttled.
  Outcome PumpScan(Sink* sink);

  Config config_;

  std::map<uint64_t, OpenTxn> txns_;
  size_t open_writes_ = 0;
  bool offload_mutations_ = true;

  std::optional<ActiveScan> scan_;
  PendingCommit pending_commit_;
  PendingWait pending_wait_;
  PendingMutation pending_mutation_;

  // Reused per-session buffers: steady-state replies allocate nothing.
  std::string reply_body_;
  std::string batch_body_;
};

}  // namespace livegraph

#endif  // LIVEGRAPH_SERVER_SESSION_H_
