// The sop wire protocol: length-prefixed, CRC-checked message frames.
//
// Every message on a connection — in either direction — is one
// common/frame.h frame (magic "SOPF" + format version + payload length +
// CRC-32 + payload), so the serving plane inherits the exact corruption
// detection the checkpoint path already proved out: truncation, extension
// and bit flips are all caught before a payload is interpreted. The
// payload is a u32 message type word followed by a type-specific body in
// common/serialize.h fixed-width little-endian encoding.
//
// Message planes (DESIGN.md Sec. 13):
//
//   handshake   kHello -> kHelloAck      version + session configuration
//   ingest      kIngest -> kIngestAck    batched points ending at a boundary
//   queries     kSubscribe -> kSubscribeAck, kUnsubscribe -> kUnsubscribeAck
//   emissions   kEmission (server-push)  per-subscriber filtered results
//   errors      kError (server-push)     diagnostic; connection stays up
//   health      kPing -> kPong           role, stream position, queue depths
//   replication kReplSnapshot/kReplBatch -> kReplAck
//               primary -> standby state shipping (DESIGN.md Sec. 16): full
//               session snapshots plus the post-snapshot batch tail, each
//               batch chained to its predecessor's boundary so the standby
//               can detect gaps and demand a fresh snapshot
//
// FrameDecoder is the incremental receive path: it accepts bytes exactly
// as recv(2) hands them over — short reads, partial frames, many frames
// per read — and yields complete, CRC-verified payloads. A malformed
// header or checksum is unrecoverable (a byte stream cannot resync after
// framing is lost), so the decoder latches into an error state and the
// connection must be dropped.
//
// Decode is exception-free and never trusts a length or count further
// than the bytes actually present: vectors are read one element at a
// time, so no decoded count sizes an allocation. Oversized frames are
// rejected at header-parse time (kMaxFramePayload) so a hostile 8-byte
// header cannot make the server reserve gigabytes.

#ifndef SOP_NET_PROTOCOL_H_
#define SOP_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sop/common/point.h"
#include "sop/query/query.h"

namespace sop {
namespace net {

/// Wire protocol version negotiated in the handshake. Bumped on any
/// incompatible message-body change; the frame format version
/// (common/frame.h) covers the framing itself. v2 adds the server role to
/// the handshake, resume positions to subscriptions, the health plane and
/// the replication plane. v3 adds the scale-out plane (DESIGN.md Sec. 17):
/// the shard-config handshake and per-point owner flags on ingest. v4 adds
/// the session arrival counter (`next_seq`) to hello and ingest acks, the
/// anchor a scale-out router realigns its sequence maps against after a
/// worker outage. v5 drops the snapshot's boundary word: the session state
/// inside it carries the stream position (core/session.h). v6 drops the
/// shard-config handshake (types 16 and 17): a worker learns nothing of
/// its shard but the owner flags on its points.
inline constexpr uint32_t kProtocolVersion = 6;

/// Upper bound on one frame's payload, enforced on both send and receive.
/// Large enough for ~100k ingested points per batch, small enough that a
/// corrupt or hostile length field cannot balloon a connection buffer.
inline constexpr uint64_t kMaxFramePayload = 16ull << 20;  // 16 MiB

/// Message type word, first u32 of every frame payload.
enum class MsgType : uint32_t {
  kHello = 1,           // client -> server: open a session
  kHelloAck = 2,        // server -> client: accept + server configuration
  kIngest = 3,          // client -> server: point batch ending at a boundary
  kIngestAck = 4,       // server -> client: batch advanced (or refused)
  kSubscribe = 5,       // client -> server: register a query
  kSubscribeAck = 6,    // server -> client: assigned query id
  kUnsubscribe = 7,     // client -> server: retire a query
  kUnsubscribeAck = 8,  // server -> client: removal result
  kEmission = 9,        // server -> client: one query's outliers at a boundary
  kError = 10,          // server -> client: diagnostic (connection stays up)
  kPing = 11,           // either direction: health probe
  kPong = 12,           // reply: role, stream position, queue depths
  kReplSnapshot = 13,   // primary -> standby: full session state + ring
  kReplBatch = 14,      // primary -> standby: one batch + its emissions
  kReplAck = 15,        // standby -> primary: applied position / resync ask
};

/// Human-readable type name for logs and test failures.
const char* MsgTypeName(MsgType type);

/// Whether a server is serving traffic or hot-standing-by for a primary.
enum class ServerRole : uint32_t {
  kPrimary = 0,  // accepts ingest and subscriptions
  kStandby = 1,  // applies replication only; promotes on primary loss
};

/// Human-readable role name ("primary" / "standby").
const char* ServerRoleName(ServerRole role);

/// Sentinel for "no resume position" in SubscribeMsg::resume_from (and for
/// "no batch ingested yet" boundaries throughout the protocol).
inline constexpr int64_t kNoResume = INT64_MIN;

struct HelloMsg {
  static constexpr MsgType kType = MsgType::kHello;
  uint32_t protocol_version = kProtocolVersion;
};

struct HelloAckMsg {
  static constexpr MsgType kType = MsgType::kHelloAck;
  uint32_t protocol_version = kProtocolVersion;
  uint32_t window_type = 0;  // WindowType under the hood
  uint32_t metric = 0;       // Metric under the hood
  uint32_t role = 0;         // ServerRole under the hood
  std::string detector;      // factory name the server compiles
  /// The shared stream's last advanced boundary (INT64_MIN when no batch
  /// has been ingested yet). Late-joining ingesters continue from here —
  /// the stream is shared, so boundaries are global, not per-connection.
  int64_t last_boundary = 0;
  /// The session's arrival sequence counter: the seq the next accepted
  /// point will get, i.e. total points ever accepted (survives checkpoint
  /// restore). Routers anchor local->global sequence maps to it.
  uint64_t next_seq = 0;
};

struct IngestMsg {
  static constexpr MsgType kType = MsgType::kIngest;
  /// Window key this batch ends at (exclusive); must exceed the server's
  /// last advanced boundary and respect the subscribers' slide quantum.
  int64_t boundary = 0;
  /// Points in arrival order. seq values are ignored — the server's
  /// session assigns global arrival sequence numbers itself.
  std::vector<Point> points;
  /// Scale-out plane only (DESIGN.md Sec. 17): per-point ownership flags,
  /// parallel to `points`. 1 = this shard owns the point (its outlier
  /// verdict is authoritative here), 0 = halo replica (present only so
  /// neighbors near the region edge are counted; the owner shard answers
  /// for it). Empty means every point is owned — the single-node case, and
  /// the wire default.
  std::vector<uint8_t> owner;
};

struct IngestAckMsg {
  static constexpr MsgType kType = MsgType::kIngestAck;
  int64_t boundary = 0;
  /// Points accepted into the session (echoes the batch size).
  uint64_t accepted = 0;
  /// Emissions routed to this subscriber for this batch, delivered before
  /// the ack on the same connection.
  uint64_t emissions = 0;
  /// The session's arrival sequence counter AFTER this batch (total points
  /// ever accepted; unchanged on a refused batch). Authoritative even when
  /// `accepted` was synthesized across a reconnect, which is what lets a
  /// scale-out router realign its local->global sequence maps after a
  /// worker missed a batch (cluster/router.h).
  uint64_t next_seq = 0;
};

struct SubscribeMsg {
  static constexpr MsgType kType = MsgType::kSubscribe;
  OutlierQuery query;  // full attribute space only (attribute_set == 0)
  /// A reconnecting subscriber's high-water mark: the boundary of the last
  /// emission it received for this query. kNoResume (the default) means a
  /// fresh subscription. With a real value, the server replays every
  /// retained emission for this query's parameters past `resume_from`
  /// (ahead of the subscribe ack) and suppresses later live emissions at
  /// or below it, so a reconnect delivers each emission exactly once.
  int64_t resume_from = kNoResume;
};

struct SubscribeAckMsg {
  static constexpr MsgType kType = MsgType::kSubscribeAck;
  /// Assigned query id (> 0); 0 when the subscription was refused, with
  /// the reason in `error`.
  int64_t query_id = 0;
  /// Emissions replayed from the resume ring ahead of this ack.
  uint64_t replayed = 0;
  /// True when the resume ring no longer reached back to `resume_from`:
  /// emissions in the uncovered span are lost, and the first delivered
  /// emission after this ack carries degraded=true to mark the gap.
  bool gap = false;
  std::string error;
};

struct UnsubscribeMsg {
  static constexpr MsgType kType = MsgType::kUnsubscribe;
  int64_t query_id = 0;
};

struct UnsubscribeAckMsg {
  static constexpr MsgType kType = MsgType::kUnsubscribeAck;
  bool ok = false;
};

struct EmissionMsg {
  static constexpr MsgType kType = MsgType::kEmission;
  int64_t query_id = 0;
  int64_t boundary = 0;
  /// True when this answer is exact over the data the server saw but the
  /// delivery stream to this subscriber is known lossy: either the engine
  /// flagged the emission degraded upstream, or the server shed earlier
  /// emissions from this subscriber's send queue under overload.
  bool degraded = false;
  std::vector<Seq> outliers;
};

struct ErrorMsg {
  static constexpr MsgType kType = MsgType::kError;
  std::string message;
};

struct PingMsg {
  static constexpr MsgType kType = MsgType::kPing;
  /// Echo token: the pong carries it back so overlapping probes on one
  /// connection can be told apart.
  uint64_t token = 0;
};

struct PongMsg {
  static constexpr MsgType kType = MsgType::kPong;
  uint64_t token = 0;
  uint32_t role = 0;  // ServerRole under the hood
  /// Last advanced boundary (kNoResume before the first batch).
  int64_t last_boundary = kNoResume;
  uint64_t ingest_queue_depth = 0;
  /// Frames queued across all subscriber send queues.
  uint64_t send_queue_depth = 0;
  uint64_t active_connections = 0;
};

/// One retained emission, addressed by the query's *parameters* rather
/// than its connection-scoped id: ids die with their connection, but a
/// reconnecting subscriber re-describes the same (r, k, window, slide)
/// query, and the resume ring matches on exactly that.
struct EmissionRecord {
  OutlierQuery query;  // only r/k/window/slide matter (attribute_set == 0)
  int64_t boundary = 0;
  bool degraded = false;
  std::vector<Seq> outliers;
};

/// One query fingerprint's slice of the resume ring: its retained
/// emissions in boundary order, plus the highest boundary ever evicted
/// from the slice (kNoResume when nothing was) — the marker that lets a
/// resume distinguish "nothing was emitted before my first entry" from
/// "emissions existed but the ring wrapped", i.e. whether a reconnect owes
/// the client a `gap` flag.
struct ResumeRingShard {
  OutlierQuery query;  // only r/k/window/slide matter (attribute_set == 0)
  int64_t evicted_to = INT64_MIN;
  struct Entry {
    int64_t boundary = 0;
    bool degraded = false;
    std::vector<Seq> outliers;
  };
  std::vector<Entry> entries;
};

struct ReplSnapshotMsg {
  static constexpr MsgType kType = MsgType::kReplSnapshot;
  /// SopSession::SaveState blob — already framed and CRC'd internally, so
  /// a standby validates it twice (frame CRC + blob CRC) and LoadState's
  /// tail rules before applying. It carries the stream position.
  std::string state;
  /// The primary's resume ring at that boundary, shipped whole so a
  /// freshly promoted standby can serve resumes for emissions it never
  /// itself computed.
  std::vector<ResumeRingShard> ring;
};

struct ReplBatchMsg {
  static constexpr MsgType kType = MsgType::kReplBatch;
  /// The boundary this batch chains from: the standby applies only when
  /// it equals its own last applied boundary, drops the batch as stale
  /// when behind it, and NAKs (ReplAckMsg::need_snapshot) when ahead —
  /// making replication self-healing across connection churn.
  int64_t prev_boundary = kNoResume;
  int64_t boundary = 0;
  std::vector<Point> points;
  /// The primary's emissions for this batch (every subscribed query due
  /// at `boundary`), so the standby's ring mirrors the primary's without
  /// recomputation drift.
  std::vector<EmissionRecord> results;
};

struct ReplAckMsg {
  static constexpr MsgType kType = MsgType::kReplAck;
  /// The standby's last applied boundary after processing the message.
  int64_t boundary = kNoResume;
  /// Chain broken (or snapshot failed to apply): primary must ship a
  /// fresh snapshot before any further batches.
  bool need_snapshot = false;
};

/// --- encoding and decoding ---------------------------------------------
/// Each message's layout is written once, as a field list in protocol.cc
/// that Encode and Decode both walk: the u32 type word M::kType, then the
/// fields in wire order. Both are instantiated for the 15 messages above.

/// One complete frame, ready to write to a socket.
template <class M>
std::string Encode(const M& msg);

/// Verifies the type word and parses the body. Returns false with a
/// diagnostic, leaving `*out` untouched, on a type mismatch, truncation,
/// trailing bytes or an out-of-range field.
template <class M>
bool Decode(std::string_view payload, M* out, std::string* error);

/// Reads the payload's type word, for dispatch before Decode.
bool PeekType(std::string_view payload, MsgType* type, std::string* error);

/// Incremental frame extraction over a raw byte stream. See file comment.
class FrameDecoder {
 public:
  enum class Status {
    kFrame,     // *payload holds one complete, CRC-verified frame payload
    kNeedMore,  // no complete frame buffered yet; feed more bytes
    kError,     // framing lost (bad magic/version/length/CRC); drop the
                // connection — every later Next() repeats kError
  };

  /// Appends raw received bytes to the decode buffer.
  void Append(const char* data, size_t n);

  /// Extracts the next complete frame payload if one is buffered.
  /// On kError, `*error` (if non-null) describes the problem.
  Status Next(std::string* payload, std::string* error = nullptr);

  /// Bytes buffered but not yet consumed by a complete frame.
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  size_t consumed_ = 0;  // prefix of buffer_ already handed out
  bool failed_ = false;
  std::string failure_;
};

}  // namespace net
}  // namespace sop

#endif  // SOP_NET_PROTOCOL_H_
