#include "server/remote_store.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <utility>

#include "server/net.h"
#include "server/stats_codec.h"
#include "server/wire.h"

namespace livegraph {

namespace {

/// How long the commit fence waits for another session's begin to be
/// answered before it aborts the committing transaction (kConflict). Far
/// above a loopback round trip, far below the engine's 50 ms vertex-lock
/// timeout: the begin may be queued behind a lock wait on a lock the
/// committer holds, and that wait must end in time.
constexpr int kFenceWaitMs = 5;

}  // namespace

// One client connection. All methods serialize on mu_: a connection is
// normally owned by one session at a time, but a chunked scan cursor can
// outlive its scan (early exit) or even its session, and must observe a
// consistent answer rather than racing the next owner's frames.
//
// Interleaving rule: the socket carries at most one live scan stream. When
// a new request (including a nested scan — SNB traversals open cursors
// inside cursor loops) arrives while a stream is live, the stream's
// remaining frames are PARKED: read off the socket into the stream's own
// buffer, where its cursor keeps consuming them. Pure sequential scans —
// the hot path — never park and hold one batch at a time; only genuinely
// interleaved access pays memory proportional to what it left unconsumed,
// which is exactly what an embedded materialized cursor would have paid up
// front.
//
// Lazy begin: a session that checks the connection out arms its begin
// (ArmBegin) instead of sending it; the first request takes the armed flag
// (kFlagBeginRead / kFlagBeginWrite) under mu_, so exactly one frame
// carries it — that request, or the explicit begin of another session's
// commit fence (Fence), whichever takes mu_ first. A fence that gives up
// waiting leaves its begin's reply owed: the next read of the socket
// consumes it first.
class RemoteStore::Connection {
 public:
  static std::shared_ptr<Connection> Dial(const Options& options,
                                          std::string* name,
                                          StoreTraits* traits) {
    Socket socket = ConnectTcp(options.host, options.port);
    if (!socket.valid()) return nullptr;
    // Deadlines on every operation: a server that stops responding fails
    // the call (surfaced as kUnavailable by the callers) instead of
    // wedging this client thread forever.
    socket.SetRecvTimeout(options.io_timeout_ms);
    socket.SetSendTimeout(options.io_timeout_ms);
    auto connection = std::make_shared<Connection>(std::move(socket));
    std::string body;
    WireWriter writer(&body);
    writer.PutU32(kProtocolVersion);
    Frame reply;
    if (!connection->Call(MsgType::kHello, body, &reply)) return nullptr;
    WireReader reader(reply.body);
    uint8_t status;
    uint32_t version;
    std::string_view remote_name;
    uint8_t time_ordered, snapshot, transactional;
    if (!reader.GetU8(&status) ||
        StatusFromWire(status) != Status::kOk ||
        !reader.GetU32(&version) || !reader.GetBytes(&remote_name) ||
        !reader.GetU8(&time_ordered) || !reader.GetU8(&snapshot) ||
        !reader.GetU8(&transactional) || !reader.Exhausted()) {
      return nullptr;
    }
    if (name != nullptr) *name = std::string(remote_name);
    if (traits != nullptr) {
      *traits = StoreTraits{time_ordered != 0, snapshot != 0,
                            transactional != 0};
    }
    return connection;
  }

  explicit Connection(Socket socket) : socket_(std::move(socket)) {}

  /// Per-stream state, shared between the connection (which appends parked
  /// frames) and the cursor's batch source (which consumes). `live` means
  /// the server still owes this stream frames on the socket; once false,
  /// everything the stream will ever yield sits in `parked`.
  struct StreamState {
    std::deque<std::string> parked;  // unconsumed batch bodies
    bool live = false;
    /// The scan carried its session's begin and no frame of it has been
    /// read: the server may not have opened the session yet.
    bool begin_unanswered = false;
  };

  bool healthy() const {
    std::lock_guard<std::mutex> lock(mu_);
    return !broken_;
  }

  /// Arms the begin of the session that just checked this connection out.
  /// No I/O: the session's first request carries `flag`.
  void ArmBegin(uint64_t txn_id, uint8_t flag) {
    std::lock_guard<std::mutex> lock(mu_);
    begin_id_ = txn_id;
    begin_flag_ = flag;
    fence_needed_.store(true, std::memory_order_release);
  }

  /// Disarms a begin that never left the client. True means the session
  /// has nothing on the server and ends without a frame.
  bool DisarmBegin() {
    std::lock_guard<std::mutex> lock(mu_);
    const bool armed = TakeBeginLocked() != kFlagNone;
    SyncFenceNeededLocked();
    return armed;
  }

  /// Lock-free hint for the commit fence: the checked-out session's begin
  /// may not have been answered yet. Never false while that is so.
  bool fence_needed() const {
    return fence_needed_.load(std::memory_order_acquire);
  }

  /// The commit fence, run by ANOTHER session of the store before it sends
  /// a commit: the session on this connection must be open on the server
  /// before that commit is, so the commit stays out of its snapshot. An
  /// armed begin goes out as an explicit begin (`*sent_begin`); a begin
  /// already sent without an answer yet — a first-request scan, or an
  /// earlier fence's begin — is awaited. If the connection is held, its
  /// owner is mid-request, so its begin has already left: the fence skips
  /// it rather than wait on a request that may itself be waiting on the
  /// committer's vertex locks. Fences of one connection queue on fence_mu_
  /// instead of skipping each other.
  ///
  /// False if the answer did not come within `wait_ms`. The begin may be
  /// queued behind an engine lock wait on the server — possibly for a lock
  /// the committer holds, a cycle only the committer can break by
  /// aborting. The answer stays owed to this connection's next reader.
  bool Fence(int wait_ms, bool* sent_begin) {
    std::lock_guard<std::mutex> fencing(fence_mu_);
    std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
    if (!lock.owns_lock() || broken_) return true;
    if (const uint8_t begin = TakeBeginLocked(); begin != kFlagNone) {
      ParkActiveStreamLocked();  // a previous session's abandoned stream
      std::string body;
      WireWriter(&body).PutU64(begin_id_);
      if (!broken_ &&
          !socket_.WriteFrame(begin == kFlagBeginWrite
                                  ? MsgType::kBeginTxn
                                  : MsgType::kBeginReadTxn,
                              kFlagNone, body, &send_scratch_)) {
        MarkBrokenLocked();
      }
      owed_begin_reply_ = !broken_;
      *sent_begin = true;
    }
    // One frame answers a begin: the owed reply, or the scan's first batch
    // (parked for its cursor).
    bool answered = true;
    while (!broken_ && (owed_begin_reply_ || (active_ != nullptr &&
                                              active_->begin_unanswered))) {
      if (!socket_.Readable(wait_ms)) {
        answered = false;
        break;
      }
      if (owed_begin_reply_) {
        ReadOwedReplyLocked();
      } else {
        ParkFrameLocked(/*abandoned=*/false);
      }
    }
    SyncFenceNeededLocked();
    return answered;
  }

  /// One request/reply exchange; the session's first request carries its
  /// armed begin.
  bool Call(MsgType type, std::string_view body, Frame* reply) {
    std::lock_guard<std::mutex> lock(mu_);
    if (broken_) return false;
    const uint8_t begin = TakeBeginLocked();
    // Park any live scan stream first so the reply read below cannot
    // swallow its batch frames.
    ParkActiveStreamLocked();
    if (broken_) return false;
    if (!socket_.WriteFrame(type, begin, body, &send_scratch_) ||
        !ReadFrameLocked(reply) || reply->type != MsgType::kReply) {
      MarkBrokenLocked();
      return false;
    }
    SyncFenceNeededLocked();
    return true;
  }

  /// One-way request (kEndRead): nothing is read back.
  bool Send(MsgType type, std::string_view body) {
    std::lock_guard<std::mutex> lock(mu_);
    if (broken_) return false;
    if (!socket_.WriteFrame(type, kFlagNone, body, &send_scratch_)) {
      MarkBrokenLocked();
      return false;
    }
    return true;
  }

  /// Pipelined exchange: `encoded` holds `count` fully framed requests.
  /// One send, then `count` in-order reply frames appended to `replies`.
  /// Parks any live scan stream first so its batch frames cannot be
  /// mistaken for replies.
  bool Exchange(std::string_view encoded, size_t count,
                std::vector<Frame>* replies) {
    std::lock_guard<std::mutex> lock(mu_);
    if (broken_) return false;
    ParkActiveStreamLocked();
    if (broken_) return false;
    if (const uint8_t begin = TakeBeginLocked(); begin != kFlagNone) {
      // Re-frame the session's first request with its begin flag.
      char header[kFrameHeaderSize];
      std::memcpy(header, encoded.data(), kFrameHeaderSize);
      MsgType type = MsgType::kReply;
      uint8_t flags = kFlagNone;
      uint32_t body_size = 0;
      DecodeFrameHeader(header, &type, &flags, &body_size);  // encoded here
      send_scratch_.clear();
      EncodeFrame(type, begin, encoded.substr(kFrameHeaderSize, body_size),
                  &send_scratch_);
      send_scratch_.append(encoded.substr(kFrameHeaderSize + body_size));
      encoded = send_scratch_;
    }
    if (!socket_.WriteFull(encoded.data(), encoded.size())) {
      MarkBrokenLocked();
      return false;
    }
    for (size_t i = 0; i < count; ++i) {
      Frame frame;
      if (!ReadFrameLocked(&frame) || frame.type != MsgType::kReply) {
        MarkBrokenLocked();
        return false;
      }
      replies->push_back(std::move(frame));
    }
    SyncFenceNeededLocked();
    return true;
  }

  /// Opens a scan stream, parking the previous one if still live. Null on
  /// I/O failure.
  std::shared_ptr<StreamState> StartScan(std::string_view body) {
    std::lock_guard<std::mutex> lock(mu_);
    if (broken_) return nullptr;
    ParkActiveStreamLocked();
    if (broken_) return nullptr;
    const uint8_t begin = TakeBeginLocked();
    if (!socket_.WriteFrame(MsgType::kScanLinks, begin, body,
                            &send_scratch_)) {
      MarkBrokenLocked();
      return nullptr;
    }
    active_ = std::make_shared<StreamState>();
    active_->live = true;
    active_->begin_unanswered = begin != kFlagNone;
    SyncFenceNeededLocked();
    return active_;
  }

  /// Pulls the next batch of `stream` into edges/arena (replacing their
  /// contents): from its parked buffer if interleaving already moved the
  /// frames there, else straight off the socket. Returns false when the
  /// stream is exhausted (end marker, error reply, or dead connection).
  bool ReadScanBatch(StreamState& stream,
                     std::vector<EdgeCursor::Edge>* edges,
                     std::string* arena) {
    std::lock_guard<std::mutex> lock(mu_);
    while (true) {
      if (!stream.parked.empty()) {
        std::string body = std::move(stream.parked.front());
        stream.parked.pop_front();
        if (!ParseBatch(body, edges, arena)) {
          MarkBrokenLocked();
          return false;
        }
        if (!edges->empty()) return true;
        continue;  // empty filler/final frame
      }
      if (!stream.live || broken_) return false;
      Frame frame;
      if (!ReadFrameLocked(&frame)) {
        MarkBrokenLocked();
        return false;
      }
      if (stream.begin_unanswered) {
        stream.begin_unanswered = false;
        SyncFenceNeededLocked();
      }
      bool end = (frame.flags & kFlagEndOfStream) != 0;
      if (end) {
        stream.live = false;
        active_.reset();
      }
      if (frame.type != MsgType::kScanBatch) {
        // Error reply aborting the scan (it carries kFlagEndOfStream).
        if (!end) MarkBrokenLocked();  // protocol violation
        return false;
      }
      if (!ParseBatch(frame.body, edges, arena)) {
        MarkBrokenLocked();
        return false;
      }
      if (!edges->empty()) return true;
      if (!stream.live) return false;  // empty final frame
    }
  }

 private:
  /// The armed begin flag, disarmed: the caller's frame carries it (or,
  /// for DisarmBegin, nothing does).
  uint8_t TakeBeginLocked() {
    const uint8_t flag = begin_flag_;
    begin_flag_ = kFlagNone;
    return flag;
  }

  void SyncFenceNeededLocked() {
    fence_needed_.store(
        begin_flag_ != kFlagNone || owed_begin_reply_ ||
            (active_ != nullptr && active_->begin_unanswered),
        std::memory_order_release);
  }

  /// Consumes the reply owed to a fence's explicit begin, if any. It is
  /// the next frame on the socket: the fence parks any live stream before
  /// sending the begin.
  bool ReadOwedReplyLocked() {
    if (!owed_begin_reply_) return true;
    Frame reply;
    if (!socket_.ReadFrame(&reply) || reply.type != MsgType::kReply) {
      MarkBrokenLocked();
      return false;
    }
    owed_begin_reply_ = false;
    return true;
  }

  /// Every read of the socket goes through here, so an owed begin reply
  /// never reaches a caller awaiting something else.
  bool ReadFrameLocked(Frame* frame) {
    if (!ReadOwedReplyLocked()) return false;
    if (!socket_.ReadFrame(frame)) {
      MarkBrokenLocked();
      return false;
    }
    return true;
  }

  void MarkBrokenLocked() {
    broken_ = true;
    owed_begin_reply_ = false;
    if (active_ != nullptr) {
      active_->live = false;
      active_.reset();
    }
    socket_.Shutdown();
  }

  /// Moves the live stream's remaining frames off the socket into its
  /// parked buffer, freeing the socket for the next request while the
  /// stream's cursor keeps its position and data.
  void ParkActiveStreamLocked() {
    // If no cursor holds the stream anymore (early-exit scan whose cursor
    // is gone), the frames can be discarded instead of buffered.
    bool abandoned = active_ != nullptr && active_.use_count() == 1;
    while (active_ != nullptr && active_->live &&
           ParkFrameLocked(abandoned)) {
    }
  }

  /// Moves one frame of the live stream into its parked buffer. False
  /// once the connection broke.
  bool ParkFrameLocked(bool abandoned) {
    Frame frame;
    if (!ReadFrameLocked(&frame)) return false;
    active_->begin_unanswered = false;
    bool end = (frame.flags & kFlagEndOfStream) != 0;
    if (frame.type == MsgType::kScanBatch) {
      if (!abandoned) active_->parked.push_back(std::move(frame.body));
    } else if (!end) {
      MarkBrokenLocked();  // protocol violation
      return false;
    }
    if (end) {
      active_->live = false;
      active_.reset();
    }
    return true;
  }

  static bool ParseBatch(std::string_view body,
                         std::vector<EdgeCursor::Edge>* edges,
                         std::string* arena) {
    edges->clear();
    arena->clear();
    WireReader reader(body);
    uint32_t count;
    if (!reader.GetU32(&count)) return false;
    edges->reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      int64_t dst, created;
      std::string_view props;
      if (!reader.GetI64(&dst) || !reader.GetI64(&created) ||
          !reader.GetBytes(&props)) {
        return false;
      }
      edges->push_back(EdgeCursor::Edge{
          dst, static_cast<uint32_t>(arena->size()),
          static_cast<uint32_t>(props.size()), created});
      arena->append(props.data(), props.size());
    }
    return reader.Exhausted();
  }

  mutable std::mutex mu_;
  Socket socket_;
  bool broken_ = false;
  std::shared_ptr<StreamState> active_;  // stream with frames on the socket
  std::string send_scratch_;
  // The checked-out session's begin while it has not left the client, and
  // a fence's explicit begin whose reply has not been read.
  uint64_t begin_id_ = 0;
  uint8_t begin_flag_ = kFlagNone;
  bool owed_begin_reply_ = false;
  std::atomic<bool> fence_needed_{false};
  std::mutex fence_mu_;  // serializes Fence() calls; owners never take it
};

namespace {

/// Chunked-cursor source over a scan stream. Holds both the connection
/// and its stream state alive; whether the remaining batches arrive
/// straight off the socket or out of the parked buffer (after an
/// interleaved request) is invisible here.
class RemoteBatchSource : public EdgeCursor::BatchSource {
 public:
  RemoteBatchSource(
      std::shared_ptr<RemoteStore::Connection> connection,
      std::shared_ptr<RemoteStore::Connection::StreamState> stream)
      : connection_(std::move(connection)), stream_(std::move(stream)) {}

  bool Fill(std::vector<EdgeCursor::Edge>* edges,
            std::string* arena) override {
    return connection_->ReadScanBatch(*stream_, edges, arena);
  }

 private:
  std::shared_ptr<RemoteStore::Connection> connection_;
  std::shared_ptr<RemoteStore::Connection::StreamState> stream_;
};

}  // namespace

// A remote session: one checked-out connection plus the client-chosen txn
// id, its begin armed on the connection until the first request. Serves
// as both StoreTxn and StoreReadTxn; mutations on a read-only session fail
// client-side with kNotActive (matching what the server would answer).
class RemoteTxn : public StoreTxn {
 public:
  RemoteTxn(RemoteStore* store,
            std::shared_ptr<RemoteStore::Connection> connection,
            uint64_t txn_id, bool writable, bool replica = false)
      : store_(store),
        connection_(std::move(connection)),
        txn_id_(txn_id),
        writable_(writable),
        replica_(replica),
        dead_(connection_ == nullptr),
        open_(connection_ != nullptr) {}

  ~RemoteTxn() override {
    // Destroying an open session aborts it (write) or releases it (read)
    // — synchronously, so engine latches are free once the destructor
    // returns. Release() is a no-op if Abort already returned the
    // connection.
    Abort();
    Release();
  }

  // --- Reads ---

  StatusOr<std::string> GetNode(vertex_t id) override {
    std::string body = BodyI64(id);
    Frame reply;
    Status status = RoundTrip(MsgType::kGetNode, body, &reply);
    if (status != Status::kOk) return status;
    return TakeBytesPayload(reply);
  }

  StatusOr<std::string> GetLink(vertex_t src, label_t label,
                                vertex_t dst) override {
    std::string body = BodyLink(src, label, dst);
    Frame reply;
    Status status = RoundTrip(MsgType::kGetLink, body, &reply);
    if (status != Status::kOk) return status;
    return TakeBytesPayload(reply);
  }

  EdgeCursor ScanLinks(vertex_t src, label_t label, size_t limit) override {
    if (!open_) return EdgeCursor();
    std::string body;
    WireWriter writer(&body);
    writer.PutU64(txn_id_);
    writer.PutI64(src);
    writer.PutU16(label);
    writer.PutU64(limit);
    auto stream = connection_->StartScan(body);
    if (stream == nullptr) return EdgeCursor();
    return EdgeCursor(std::make_unique<RemoteBatchSource>(
        connection_, std::move(stream)));
  }

  size_t CountLinks(vertex_t src, label_t label) override {
    std::string body;
    WireWriter writer(&body);
    writer.PutU64(txn_id_);
    writer.PutI64(src);
    writer.PutU16(label);
    Frame reply;
    if (RoundTrip(MsgType::kCountLinks, body, &reply) != Status::kOk) {
      return 0;
    }
    WireReader reader(PayloadAfterStatus(reply));
    uint64_t count = 0;
    reader.GetU64(&count);
    return count;
  }

  vertex_t VertexCount() override {
    Frame reply;
    if (RoundTrip(MsgType::kVertexCount, {}, &reply) != Status::kOk) {
      return 0;
    }
    WireReader reader(PayloadAfterStatus(reply));
    int64_t count = 0;
    reader.GetI64(&count);
    return count;
  }

  Status SessionStatus() const override {
    Status guard = Guard();
    if (guard != Status::kOk) return guard;
    return connection_->healthy() ? Status::kOk : Status::kUnavailable;
  }

  // --- Writes ---

  StatusOr<vertex_t> AddNode(std::string_view data) override {
    if (!writable_) return Status::kNotActive;
    std::string body;
    WireWriter writer(&body);
    writer.PutU64(txn_id_);
    writer.PutBytes(data);
    Frame reply;
    Status status = RoundTrip(MsgType::kAddNode, body, &reply);
    if (status != Status::kOk) return status;
    WireReader reader(PayloadAfterStatus(reply));
    int64_t id;
    if (!reader.GetI64(&id)) return Status::kUnavailable;
    return id;
  }

  Status UpdateNode(vertex_t id, std::string_view data) override {
    if (!writable_) return Status::kNotActive;
    std::string body;
    WireWriter writer(&body);
    writer.PutU64(txn_id_);
    writer.PutI64(id);
    writer.PutBytes(data);
    Frame reply;
    return RoundTrip(MsgType::kUpdateNode, body, &reply);
  }

  Status DeleteNode(vertex_t id) override {
    if (!writable_) return Status::kNotActive;
    std::string body = BodyI64(id);
    Frame reply;
    return RoundTrip(MsgType::kDeleteNode, body, &reply);
  }

  StatusOr<bool> AddLink(vertex_t src, label_t label, vertex_t dst,
                         std::string_view data) override {
    if (!writable_) return Status::kNotActive;
    std::string body = BodyLink(src, label, dst, data);
    Frame reply;
    Status status = RoundTrip(MsgType::kAddLink, body, &reply);
    if (status != Status::kOk) return status;
    WireReader reader(PayloadAfterStatus(reply));
    uint8_t inserted;
    if (!reader.GetU8(&inserted)) return Status::kUnavailable;
    return inserted != 0;
  }

  Status UpdateLink(vertex_t src, label_t label, vertex_t dst,
                    std::string_view data) override {
    if (!writable_) return Status::kNotActive;
    std::string body = BodyLink(src, label, dst, data);
    Frame reply;
    return RoundTrip(MsgType::kUpdateLink, body, &reply);
  }

  Status DeleteLink(vertex_t src, label_t label, vertex_t dst) override {
    if (!writable_) return Status::kNotActive;
    std::string body = BodyLink(src, label, dst);
    Frame reply;
    return RoundTrip(MsgType::kDeleteLink, body, &reply);
  }

  // --- Lifecycle ---

  StatusOr<timestamp_t> Commit() override {
    if (!writable_) return Status::kNotActive;
    Status guard = Guard();
    if (guard != Status::kOk) return guard;
    if (!store_->FenceSessions(connection_.get())) {
      Abort();
      return Status::kConflict;  // RunWrite retries, as after any conflict
    }
    Frame reply;
    Status status = CallWithTxn(MsgType::kCommit, {}, &reply);
    open_ = false;
    Release();
    if (status != Status::kOk) return status;
    WireReader reader(PayloadAfterStatus(reply));
    int64_t epoch;
    if (!reader.GetI64(&epoch)) return Status::kUnavailable;
    // Commit epochs feed the client's read-your-epoch bound: a later read
    // session routed to a follower waits until this epoch is applied.
    store_->NoteCommitEpoch(epoch);
    return epoch;
  }

  void Abort() override {
    if (!open_) return;
    open_ = false;
    // A session whose begin never left the client has nothing to end.
    if (!connection_->DisarmBegin()) {
      if (writable_) {
        Frame reply;
        CallWithTxn(MsgType::kAbort, {}, &reply);
      } else {
        std::string body;
        WireWriter(&body).PutU64(txn_id_);
        connection_->Send(MsgType::kEndRead, body);
      }
    }
    Release();
  }

 private:
  /// txn-id-prefixed request with status-checked reply. Payload-free
  /// `extra` for lifecycle messages; reads/writes build their own bodies.
  Status CallWithTxn(MsgType type, std::string_view extra, Frame* reply) {
    if (connection_ == nullptr) return Status::kUnavailable;
    std::string body;
    WireWriter writer(&body);
    writer.PutU64(txn_id_);
    body.append(extra.data(), extra.size());
    if (!connection_->Call(type, body, reply)) return Status::kUnavailable;
    WireReader reader(reply->body);
    uint8_t status;
    if (!reader.GetU8(&status)) return Status::kUnavailable;
    return StatusFromWire(status);
  }

  /// Distinguishes "the network is gone" (kUnavailable) from "this session
  /// already ended" (kNotActive, matching embedded engines).
  Status Guard() const {
    if (dead_) return Status::kUnavailable;
    if (!open_ || connection_ == nullptr) return Status::kNotActive;
    return Status::kOk;
  }

  /// Sends a fully built body (already txn-id-prefixed).
  Status RoundTrip(MsgType type, std::string_view body, Frame* reply) {
    Status guard = Guard();
    if (guard != Status::kOk) return guard;
    if (body.empty()) return CallWithTxn(type, {}, reply);
    if (!connection_->Call(type, body, reply)) return Status::kUnavailable;
    WireReader reader(reply->body);
    uint8_t status;
    if (!reader.GetU8(&status)) return Status::kUnavailable;
    return StatusFromWire(status);
  }

  std::string BodyI64(int64_t value) const {
    std::string body;
    WireWriter writer(&body);
    writer.PutU64(txn_id_);
    writer.PutI64(value);
    return body;
  }

  std::string BodyLink(vertex_t src, label_t label, vertex_t dst) const {
    std::string body;
    WireWriter writer(&body);
    writer.PutU64(txn_id_);
    writer.PutI64(src);
    writer.PutU16(label);
    writer.PutI64(dst);
    return body;
  }

  std::string BodyLink(vertex_t src, label_t label, vertex_t dst,
                       std::string_view data) const {
    std::string body = BodyLink(src, label, dst);
    WireWriter writer(&body);
    writer.PutBytes(data);
    return body;
  }

  static std::string_view PayloadAfterStatus(const Frame& reply) {
    return std::string_view(reply.body).substr(1);
  }

  static StatusOr<std::string> TakeBytesPayload(const Frame& reply) {
    WireReader reader(PayloadAfterStatus(reply));
    std::string_view bytes;
    if (!reader.GetBytes(&bytes)) return Status::kUnavailable;
    return std::string(bytes);
  }

  void Release() {
    if (connection_ != nullptr) {
      store_->ReleaseConnection(std::move(connection_), replica_);
      connection_ = nullptr;
    }
  }

  RemoteStore* store_;
  std::shared_ptr<RemoteStore::Connection> connection_;
  uint64_t txn_id_;
  bool writable_;
  bool replica_;  // checked out of the follower pool, returns there
  bool dead_;  // never had a connection: kUnavailable, not kNotActive
  bool open_;
};

// --- Pipeline -------------------------------------------------------------

namespace {

/// One pipelined send is capped so its replies (small, but nonzero) can
/// never outgrow the server's per-connection output watermarks while the
/// client is still writing — the classic pipelining deadlock.
constexpr size_t kPipelineChunkBytes = 256u << 10;

}  // namespace

RemoteStore::Pipeline::Pipeline(RemoteStore* store,
                                std::shared_ptr<Connection> connection,
                                uint64_t txn_id)
    : store_(store),
      connection_(std::move(connection)),
      txn_id_(txn_id),
      open_(connection_ != nullptr) {}

RemoteStore::Pipeline::~Pipeline() { Abort(); }

void RemoteStore::Pipeline::Queue(MsgType type, std::string_view body) {
  if (!open_) return;
  EncodeFrame(type, kFlagNone, body, &batch_);
  ends_.push_back(batch_.size());
}

void RemoteStore::Pipeline::AddNode(std::string_view data) {
  std::string body;
  WireWriter writer(&body);
  writer.PutU64(txn_id_);
  writer.PutBytes(data);
  Queue(MsgType::kAddNode, body);
}

void RemoteStore::Pipeline::UpdateNode(vertex_t id, std::string_view data) {
  std::string body;
  WireWriter writer(&body);
  writer.PutU64(txn_id_);
  writer.PutI64(id);
  writer.PutBytes(data);
  Queue(MsgType::kUpdateNode, body);
}

void RemoteStore::Pipeline::DeleteNode(vertex_t id) {
  std::string body;
  WireWriter writer(&body);
  writer.PutU64(txn_id_);
  writer.PutI64(id);
  Queue(MsgType::kDeleteNode, body);
}

void RemoteStore::Pipeline::AddLink(vertex_t src, label_t label,
                                    vertex_t dst, std::string_view data) {
  std::string body;
  WireWriter writer(&body);
  writer.PutU64(txn_id_);
  writer.PutI64(src);
  writer.PutU16(label);
  writer.PutI64(dst);
  writer.PutBytes(data);
  Queue(MsgType::kAddLink, body);
}

void RemoteStore::Pipeline::UpdateLink(vertex_t src, label_t label,
                                       vertex_t dst, std::string_view data) {
  std::string body;
  WireWriter writer(&body);
  writer.PutU64(txn_id_);
  writer.PutI64(src);
  writer.PutU16(label);
  writer.PutI64(dst);
  writer.PutBytes(data);
  Queue(MsgType::kUpdateLink, body);
}

void RemoteStore::Pipeline::DeleteLink(vertex_t src, label_t label,
                                       vertex_t dst) {
  std::string body;
  WireWriter writer(&body);
  writer.PutU64(txn_id_);
  writer.PutI64(src);
  writer.PutU16(label);
  writer.PutI64(dst);
  Queue(MsgType::kDeleteLink, body);
}

bool RemoteStore::Pipeline::Flush(std::vector<Status>* statuses) {
  if (statuses != nullptr) statuses->clear();
  if (!open_) return false;
  if (ends_.empty()) return true;
  std::vector<Frame> replies;
  size_t first = 0;
  size_t first_off = 0;
  while (first < ends_.size()) {
    // At least one frame per chunk; otherwise as many as fit the cap.
    size_t last = first + 1;
    while (last < ends_.size() &&
           ends_[last] - first_off <= kPipelineChunkBytes) {
      ++last;
    }
    size_t last_off = ends_[last - 1];
    std::string_view chunk =
        std::string_view(batch_).substr(first_off, last_off - first_off);
    if (!connection_->Exchange(chunk, last - first, &replies)) {
      open_ = false;
      Release();
      return false;
    }
    first = last;
    first_off = last_off;
  }
  if (statuses != nullptr) {
    statuses->reserve(replies.size());
    for (const Frame& reply : replies) {
      WireReader reader(reply.body);
      uint8_t status;
      statuses->push_back(reader.GetU8(&status) ? StatusFromWire(status)
                                                : Status::kUnavailable);
    }
  }
  batch_.clear();
  ends_.clear();
  return true;
}

StatusOr<timestamp_t> RemoteStore::Pipeline::Commit() {
  if (!open_) return Status::kUnavailable;
  if (!Flush(nullptr)) return Status::kUnavailable;
  if (!store_->FenceSessions(connection_.get())) {
    Abort();
    return Status::kConflict;
  }
  std::string body;
  WireWriter writer(&body);
  writer.PutU64(txn_id_);
  Frame reply;
  bool ok = connection_->Call(MsgType::kCommit, body, &reply);
  open_ = false;
  Release();
  if (!ok) return Status::kUnavailable;
  WireReader reader(reply.body);
  uint8_t status;
  if (!reader.GetU8(&status)) return Status::kUnavailable;
  Status decoded = StatusFromWire(status);
  if (decoded != Status::kOk) return decoded;
  int64_t epoch;
  if (!reader.GetI64(&epoch)) return Status::kUnavailable;
  store_->NoteCommitEpoch(epoch);
  return epoch;
}

void RemoteStore::Pipeline::Abort() {
  if (!open_) return;
  batch_.clear();
  ends_.clear();
  if (!connection_->DisarmBegin()) {
    std::string body;
    WireWriter writer(&body);
    writer.PutU64(txn_id_);
    Frame reply;
    connection_->Call(MsgType::kAbort, body, &reply);
  }
  open_ = false;
  Release();
}

void RemoteStore::Pipeline::Release() {
  if (connection_ != nullptr) {
    store_->ReleaseConnection(std::move(connection_), /*replica=*/false);
    connection_ = nullptr;
  }
}

std::unique_ptr<RemoteStore::Pipeline> RemoteStore::NewPipeline() {
  std::shared_ptr<Connection> connection =
      AcquireConnection(/*replica=*/false);
  const uint64_t txn_id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  if (connection != nullptr) connection->ArmBegin(txn_id, kFlagBeginWrite);
  return std::unique_ptr<Pipeline>(
      new Pipeline(this, std::move(connection), txn_id));
}

std::unique_ptr<RemoteStore> RemoteStore::Connect(const Options& options) {
  std::string name;
  StoreTraits traits;
  auto connection = Connection::Dial(options, &name, &traits);
  if (connection == nullptr) return nullptr;
  std::unique_ptr<RemoteStore> store(new RemoteStore(options));
  store->remote_name_ = std::move(name);
  store->traits_ = traits;
  store->pool_.push_back(std::move(connection));
  return store;
}

RemoteStore::~RemoteStore() = default;

std::shared_ptr<RemoteStore::Connection> RemoteStore::AcquireConnection(
    bool replica) {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    std::vector<std::shared_ptr<Connection>>& pool =
        replica ? replica_pool_ : pool_;
    while (!pool.empty()) {
      std::shared_ptr<Connection> connection = std::move(pool.back());
      pool.pop_back();
      if (connection->healthy()) {
        checked_out_.push_back(connection);
        return connection;
      }
    }
  }
  Options dial = options_;
  if (replica) {
    dial.host = options_.replica_host;
    dial.port = options_.replica_port;
  }
  std::shared_ptr<Connection> connection =
      Connection::Dial(dial, nullptr, nullptr);
  if (connection != nullptr) {
    std::lock_guard<std::mutex> lock(pool_mu_);
    checked_out_.push_back(connection);
  }
  return connection;
}

void RemoteStore::ReleaseConnection(std::shared_ptr<Connection> connection,
                                    bool replica) {
  if (connection == nullptr) return;
  const bool healthy = connection->healthy();
  std::lock_guard<std::mutex> lock(pool_mu_);
  auto it = std::find(checked_out_.begin(), checked_out_.end(), connection);
  if (it != checked_out_.end()) {
    *it = std::move(checked_out_.back());
    checked_out_.pop_back();
  }
  if (healthy) {
    (replica ? replica_pool_ : pool_).push_back(std::move(connection));
  }
}

// The commit fence (docs/SERVER.md "Session model"). Only sessions whose
// begin may not have been answered need work, and the hint filters out
// the rest under pool_mu_; the fencing itself runs outside it. A begin
// left unanswered past kFenceWaitMs fails the fence: the committer then
// aborts instead of committing, which releases any lock the begin's event
// loop may be waiting on, and the commit never overtakes the begin.
bool RemoteStore::FenceSessions(const Connection* committer) {
  if (!traits_.snapshot_reads) return true;  // no snapshot to keep
  std::vector<std::shared_ptr<Connection>> pending;
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    for (const std::shared_ptr<Connection>& connection : checked_out_) {
      if (connection.get() != committer && connection->fence_needed()) {
        pending.push_back(connection);
      }
    }
  }
  for (const std::shared_ptr<Connection>& connection : pending) {
    bool sent_begin = false;
    const bool answered =
        connection->Fence(kFenceWaitMs, &sent_begin);
    if (sent_begin) fenced_begins_.fetch_add(1, std::memory_order_relaxed);
    if (!answered) {
      fence_aborts_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  return true;
}

void RemoteStore::NoteCommitEpoch(timestamp_t epoch) {
  timestamp_t current = last_commit_epoch_.load(std::memory_order_relaxed);
  while (current < epoch &&
         !last_commit_epoch_.compare_exchange_weak(
             current, epoch, std::memory_order_relaxed)) {
  }
}

bool RemoteStore::ReplicaBackedOff() {
  std::lock_guard<std::mutex> lock(pool_mu_);
  return replica_backoff_ms_ > 0 &&
         std::chrono::steady_clock::now() < replica_retry_at_;
}

void RemoteStore::NoteReplicaFailure() {
  std::lock_guard<std::mutex> lock(pool_mu_);
  replica_backoff_ms_ =
      replica_backoff_ms_ == 0
          ? options_.replica_backoff_ms
          : std::min(replica_backoff_ms_ * 2,
                     options_.replica_backoff_cap_ms);
  replica_retry_at_ = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(replica_backoff_ms_);
}

// Follower-first read session: kBeginReadTxnAt carrying the client's
// read-your-epoch bound. Null on any failure — dead follower, lagging
// frontier (kTimeout), protocol mismatch — and the caller retries once
// against the primary; the follower goes into a capped backoff so a dead
// one is not re-dialed on every read.
std::unique_ptr<StoreTxn> RemoteStore::BeginReplicaReadSession() {
  if (ReplicaBackedOff()) return nullptr;
  std::shared_ptr<Connection> connection =
      AcquireConnection(/*replica=*/true);
  if (connection == nullptr) {
    NoteReplicaFailure();
    return nullptr;
  }
  const uint64_t txn_id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  std::string body;
  WireWriter writer(&body);
  writer.PutU64(txn_id);
  writer.PutI64(last_commit_epoch_.load(std::memory_order_relaxed));
  writer.PutU32(options_.read_your_epoch_timeout_ms);
  Frame reply;
  uint8_t status = 0;
  if (!connection->Call(MsgType::kBeginReadTxnAt, body, &reply)) {
    ReleaseConnection(std::move(connection), /*replica=*/true);
    NoteReplicaFailure();
    return nullptr;
  }
  WireReader reader(reply.body);
  if (!reader.GetU8(&status) || StatusFromWire(status) != Status::kOk) {
    // The follower answered but cannot serve the epoch (or rejected the
    // request): return its healthy connection and fail over this session.
    ReleaseConnection(std::move(connection), /*replica=*/true);
    NoteReplicaFailure();
    return nullptr;
  }
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    replica_backoff_ms_ = 0;  // a served session clears the penalty box
  }
  return std::make_unique<RemoteTxn>(this, std::move(connection), txn_id,
                                     /*writable=*/false, /*replica=*/true);
}

size_t RemoteStore::idle_connections() const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  return pool_.size();
}

bool RemoteStore::Stats(metrics::Snapshot* out) {
  std::shared_ptr<Connection> connection =
      AcquireConnection(/*replica=*/false);
  if (connection == nullptr) return false;
  Frame reply;
  bool ok = connection->Call(MsgType::kStats, {}, &reply);
  ReleaseConnection(std::move(connection), /*replica=*/false);
  if (!ok) return false;
  WireReader reader(reply.body);
  uint8_t status;
  std::string_view payload;
  if (!reader.GetU8(&status) || StatusFromWire(status) != Status::kOk ||
      !reader.GetBytes(&payload) || !reader.Exhausted()) {
    return false;
  }
  return DecodeStats(payload, out);
}

// No I/O: the session's first request opens it on the server.
std::unique_ptr<StoreTxn> RemoteStore::BeginSession(bool writable) {
  std::shared_ptr<Connection> connection =
      AcquireConnection(/*replica=*/false);
  const uint64_t txn_id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  if (connection != nullptr) {
    connection->ArmBegin(txn_id,
                         writable ? kFlagBeginWrite : kFlagBeginRead);
  }
  // A null connection yields a dead session: every operation reports
  // kUnavailable, which RunWrite surfaces without retrying.
  return std::make_unique<RemoteTxn>(this, std::move(connection), txn_id,
                                     writable);
}

std::unique_ptr<StoreTxn> RemoteStore::BeginTxn() {
  return BeginSession(/*writable=*/true);
}

std::unique_ptr<StoreReadTxn> RemoteStore::BeginReadTxn() {
  if (options_.replica_port != 0) {
    std::unique_ptr<StoreTxn> session = BeginReplicaReadSession();
    if (session != nullptr) return session;
    // One retry, against the primary. The epoch bound needs no wait
    // there: the primary's visibility already covers every commit it
    // acknowledged.
    read_failovers_.fetch_add(1, std::memory_order_relaxed);
  }
  return BeginSession(/*writable=*/false);
}

}  // namespace livegraph
