// The graph-server wire protocol: length-prefixed binary frames with
// CRC32C-guarded headers (docs/SERVER.md).
//
// Every message is one frame:
//
//   +--------+------+-------+----------+-----------+---------+  +------+
//   | magic  | type | flags | reserved | body_size |   crc   |  | body |
//   |  u32   |  u8  |  u8   |   u16    |    u32    |   u32   |  | ...  |
//   +--------+------+-------+----------+-----------+---------+  +------+
//
// `crc` is CRC32C over the first 12 header bytes extended over the body
// (util/crc32, the same Castagnoli polynomial guarding WAL records), so a
// torn or bit-flipped frame — header or payload — is detected before any
// field is trusted. A peer that receives a frame failing validation closes
// the connection: framing is lost, and resynchronizing inside a corrupt
// byte stream is not worth the attack surface.
//
// Requests carry a transaction id the client picks, unique among the
// connection's open sessions. A session opens lazily: its first request
// carries a begin flag (kFlagBeginRead / kFlagBeginWrite) and the server
// opens the engine session under that id before dispatching the request,
// so a single-op read session costs one round trip plus the one-way
// kEndRead. Explicit kBeginTxn / kBeginReadTxn frames remain for the
// client's commit fence (docs/SERVER.md "Session model").
//
// Responses are kReply (status byte + operation-specific payload) except
// scans: ScanLinks answers with a pipelined sequence of kScanBatch frames,
// each holding up to the server's batch budget of edges, the last flagged
// kEndOfStream — the server never materializes the adjacency list, and the
// client never holds more than one batch (EdgeCursor chunked mode).
#ifndef LIVEGRAPH_SERVER_PROTOCOL_H_
#define LIVEGRAPH_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/types.h"

namespace livegraph {

/// Bumped on any incompatible frame/body layout change; checked during the
/// Hello handshake. v2 added the replication frames (kSubscribe,
/// kLogBatch, kSnapshotBatch, kFrontierAck) and epoch-gated reads
/// (kBeginReadTxnAt) — docs/REPLICATION.md. v3 added kStats
/// (docs/OBSERVABILITY.md). v4 made txn ids client-chosen, sessions
/// lazily opened by begin flags, and kEndRead one-way.
inline constexpr uint32_t kProtocolVersion = 4;

/// "LGW1" — rejects non-protocol peers (and byte-shifted streams) before
/// the CRC even runs.
inline constexpr uint32_t kFrameMagic = 0x3157474C;

/// Hard ceiling on body size: a corrupt length field must not become a
/// multi-gigabyte allocation. 16 MiB comfortably holds the largest legal
/// body (one property blob or one scan batch).
inline constexpr uint32_t kMaxFrameBody = 16u << 20;

enum class MsgType : uint8_t {
  // Requests. All carry `u64 txn_id` first unless noted; kCommit through
  // kDeleteLink accept a begin flag.
  kHello = 1,         // u32 protocol_version (no txn id)
  kBeginTxn = 2,      // -> kReply{status}; opens a write session
  kBeginReadTxn = 3,  // -> kReply{status}; opens a read session
  kCommit = 4,        // -> kReply{status, i64 epoch}
  kAbort = 5,
  kEndRead = 6,       // one-way: no reply, even for an unknown id
  kGetNode = 7,       // i64 id
  kGetLink = 8,       // i64 src, u16 label, i64 dst
  kScanLinks = 9,     // i64 src, u16 label, u64 limit
  kCountLinks = 10,   // i64 src, u16 label
  kVertexCount = 11,
  kAddNode = 12,      // bytes data
  kUpdateNode = 13,   // i64 id, bytes data
  kDeleteNode = 14,   // i64 id
  kAddLink = 15,      // i64 src, u16 label, i64 dst, bytes data
  kUpdateLink = 16,   // i64 src, u16 label, i64 dst, bytes data
  kDeleteLink = 17,   // i64 src, u16 label, i64 dst

  // Replication (docs/REPLICATION.md). A follower sends kSubscribe once;
  // on kOk the connection becomes a push stream of kSnapshotBatch (when
  // the reply offered a snapshot) and then kLogBatch frames, with the
  // follower sending only kFrontierAck back.
  kSubscribe = 18,      // i64 from_epoch, u32 follower_shards (0 = fresh)
                        //   -> kReply{status; on kOk: u32 shards,
                        //      u8 snapshot_follows, i64 snapshot_epoch}
  kBeginReadTxnAt = 19, // u64 txn_id, i64 min_epoch, u32 timeout_ms
                        //   -> kReply{status}; kTimeout when the
                        //      frontier does not cover min_epoch in time
  kFrontierAck = 20,    // i64 epoch — follower->primary, no reply

  kStats = 21,          // (empty body, no txn id) -> kReply{status, bytes
                        //   versioned metrics snapshot — stats_codec.h}

  // Responses.
  kReply = 64,      // u8 status, then on kOk an op-specific payload
  kScanBatch = 65,  // u32 count, count * (i64 dst, i64 created, bytes props)
  kSnapshotBatch = 66,  // u32 shard, bytes payload (WAL-record format);
                        // the last frame carries kFlagEndOfStream
  kLogBatch = 67,       // i64 frontier, u32 count, count * (i64 epoch,
                        // u32 participants, u32 shard, bytes payload);
                        // count = 0 is a frontier heartbeat
};

enum FrameFlags : uint8_t {
  kFlagNone = 0,
  /// Last frame of a scan response. Set on the final kScanBatch (which may
  /// carry zero edges) and on a kReply that aborts a scan, so "read until
  /// kEndOfStream" is the complete client-side drain rule.
  kFlagEndOfStream = 1,
  /// Request flags: open the session named by the request's txn id (as a
  /// read or a write session) before running the request. An id that is
  /// already open, both flags at once, or a flag on a request without a
  /// txn id is a protocol violation that closes the connection.
  kFlagBeginRead = 2,
  kFlagBeginWrite = 4,
};

/// A decoded frame. `body` owns its bytes (copied out of the receive
/// buffer) so replies survive buffer reuse.
struct Frame {
  MsgType type = MsgType::kReply;
  uint8_t flags = 0;
  std::string body;
};

inline constexpr size_t kFrameHeaderSize = 16;

/// Appends a fully framed message (header + crc + body) to `out`. `out` is
/// not cleared: connections batch small frames into one write.
void EncodeFrame(MsgType type, uint8_t flags, std::string_view body,
                 std::string* out);

/// Validates a 16-byte header's structure (magic, known type, sane body
/// size) and extracts its fields. Acceptance is provisional: the CRC spans
/// the body too, so the caller must follow up with ValidateFrame once the
/// body bytes arrive.
bool DecodeFrameHeader(const char (&header)[kFrameHeaderSize],
                       MsgType* type, uint8_t* flags, uint32_t* body_size);

/// True iff the frame's CRC (stored in the header) matches a recomputation
/// over the header's guarded prefix plus the received body.
bool ValidateFrame(const char (&header)[kFrameHeaderSize],
                   std::string_view body);

/// Status <-> wire byte. Unknown bytes decode to kUnavailable: a peer
/// speaking a newer dialect must degrade loudly, not alias onto kOk.
uint8_t StatusToWire(Status status);
Status StatusFromWire(uint8_t wire);

}  // namespace livegraph

#endif  // LIVEGRAPH_SERVER_PROTOCOL_H_
