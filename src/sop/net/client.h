// SopClient: a blocking client for the sop serving plane (net/server.h).
//
// The client is deliberately synchronous — one socket, no threads: each
// request writes its frame and then reads until the matching ack arrives.
// Server-push frames (emissions, error diagnostics) that arrive while
// waiting are buffered and handed out via TakeEmissions/TakeErrors. The
// server enqueues a batch's emissions ahead of its ingest ack on the same
// connection, so after Ingest() returns, every emission the server routed
// to this client for that batch is already in the buffer — which makes a
// subscribe-ingest-collect loop deterministic, and is exactly what the
// loopback equivalence tests exploit.
//
// Auto-reconnect (EnableReconnect): when armed, a dead connection is
// recovered transparently mid-call — the client walks its endpoint list
// with bounded backoff until it finds a serving primary (a standby that
// has not promoted yet is skipped), then re-subscribes every live query
// with its high-water boundary as `resume_from` (the server replays
// retained later emissions), and re-ingests its retained batch tail past
// the new server's stream position (a freshly promoted standby may trail
// the old primary by the unreplicated batches). Query ids handed to the
// caller are stable across reconnects: the client remaps the server's new
// ids internally. Every delivered emission is deduplicated against the
// per-query high-water mark, so across any number of disconnects and
// failovers the caller sees each (query, boundary) exactly once, in
// boundary order — unless the server flagged a real gap, which surfaces as
// `degraded` on the next emission.
//
// Not thread-safe: one SopClient per thread.

#ifndef SOP_NET_CLIENT_H_
#define SOP_NET_CLIENT_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "sop/common/point.h"
#include "sop/net/protocol.h"
#include "sop/net/socket.h"
#include "sop/query/query.h"

namespace sop {
namespace net {

/// One serving endpoint for reconnect failover.
struct Endpoint {
  std::string host;
  int port = 0;
};

/// Auto-reconnect policy (see file comment).
struct ReconnectOptions {
  /// Endpoints tried round-robin during recovery. When empty, the endpoint
  /// passed to Connect() is the only candidate.
  std::vector<Endpoint> endpoints;
  /// Total connection attempts per recovery before giving up. Combined
  /// with the backoff schedule this bounds how long a failover may take
  /// (a standby needs a moment to notice primary loss and promote).
  int max_attempts = 40;
  int backoff_initial_ms = 10;
  int backoff_max_ms = 500;
  /// Acked ingest batches retained for re-ingest after a failover: a
  /// freshly promoted standby may trail the old primary by the batches it
  /// had not replicated yet. Size it past the primary's replication lag
  /// (normally one batch) or accept a hole in the stream.
  size_t ingest_replay = 64;
};

/// Blocking serving-plane client. See file comment.
class SopClient {
 public:
  SopClient() = default;
  ~SopClient() { Close(); }

  SopClient(const SopClient&) = delete;
  SopClient& operator=(const SopClient&) = delete;

  /// Connects and completes the hello handshake, discarding any previous
  /// session state (subscriptions, high-water marks, retained batches).
  /// Returns false with `*error` set on connection failure, version
  /// mismatch, or a malformed handshake.
  bool Connect(const std::string& host, int port, std::string* error);

  /// Arms transparent recovery for every later call (see file comment).
  /// Call any time; an empty endpoint list falls back to the Connect()
  /// endpoint.
  void EnableReconnect(ReconnectOptions options);

  /// True between a successful Connect and Close (or a connection error,
  /// which closes the socket).
  bool connected() const { return sock_.valid(); }

  /// Server session configuration from the most recent handshake (valid
  /// after Connect): window type, metric, detector name, role, stream
  /// position.
  const HelloAckMsg& server_info() const { return server_info_; }

  /// Registers a query; returns its client-stable id (> 0), or 0 with
  /// `*error` set when the server refused it (bad parameters) or the
  /// connection failed. The id survives reconnects.
  int64_t Subscribe(const OutlierQuery& query, std::string* error);

  /// Subscribe with an explicit resume position (a persisted high-water
  /// boundary from a previous process): the server replays every retained
  /// emission for this query's parameters past `resume_from` and the
  /// replay lands in TakeEmissions() before this returns. Pass kNoResume
  /// for a fresh subscription.
  int64_t Subscribe(const OutlierQuery& query, int64_t resume_from,
                    std::string* error);

  /// From the most recent subscribe ack: emissions replayed ahead of it,
  /// and whether the server reported a resume gap (ring wrapped past the
  /// requested position; lost emissions are flagged on the next delivery).
  uint64_t last_replayed() const { return last_replayed_; }
  bool last_gap() const { return last_gap_; }

  /// The boundary of the newest emission delivered for `query_id`
  /// (kNoResume before the first). Persist it to resume a subscription in
  /// a future process via Subscribe(query, resume_from).
  int64_t high_water(int64_t query_id) const;

  /// Retires a previously subscribed query. Returns false for unknown ids
  /// or connection failure.
  bool Unsubscribe(int64_t query_id, std::string* error);

  /// Sends one point batch ending at `boundary` and waits for the ack;
  /// emissions the server routed to this client for the batch are buffered
  /// before this returns (see file comment). Records the round-trip time
  /// into the "net/client/rtt_ms" histogram. On a refused batch the ack
  /// has accepted == 0 and the server's diagnostic is in TakeErrors().
  /// With reconnect armed, a batch whose ack was lost to a crash but whose
  /// boundary the recovered stream already passed is reported accepted —
  /// it (or its re-ingested copy) is in the stream exactly once.
  bool Ingest(int64_t boundary, const std::vector<Point>& points,
              IngestAckMsg* ack, std::string* error);

  /// Ingest with per-point ownership flags (scale-out plane, DESIGN.md
  /// Sec. 17): `owner` is parallel to `points` (or empty = all owned).
  /// Routers use this to mark halo replicas; the flags ride along on
  /// post-failover re-ingest too.
  bool Ingest(int64_t boundary, const std::vector<Point>& points,
              const std::vector<uint8_t>& owner, IngestAckMsg* ack,
              std::string* error);

  /// Health probe: role, stream position, queue depths. Never triggers
  /// reconnect — a probe that cannot reach the server should say so.
  bool Ping(PongMsg* pong, std::string* error);

  /// Drains buffered server-push emissions, in arrival order, with
  /// client-stable query ids and exactly-once dedup already applied.
  std::vector<EmissionMsg> TakeEmissions();

  /// Drains buffered server error diagnostics, in arrival order.
  std::vector<ErrorMsg> TakeErrors();

  /// Bytes sent/received over every connection this client made. These
  /// four counts have no copy in the obs registry.
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }

  /// Completed transparent recoveries since Connect.
  uint64_t reconnects() const { return reconnects_; }
  /// Emissions dropped as already-delivered duplicates (resume overlap).
  uint64_t dropped_duplicates() const { return dropped_duplicates_; }

  void Close();

 private:
  // One live subscription, addressed by its client-stable public id.
  struct Sub {
    OutlierQuery query;
    int64_t server_id = 0;       // current server-assigned id
    int64_t hwm = kNoResume;     // newest delivered emission boundary
  };

  // One acked batch retained for post-failover re-ingest.
  struct SentBatch {
    int64_t boundary = 0;
    std::vector<Point> points;
    std::vector<uint8_t> owner;  // per-point ownership flags (may be empty)
  };

  // Connect + handshake without touching session state (the recovery
  // path; Connect() wraps it and clears state first).
  bool ConnectRaw(const std::string& host, int port, std::string* error);

  // Wire-level subscribe for `sub`, adopting replayed emissions under
  // `public_id`. Updates sub.server_id and the reverse map on success.
  bool WireSubscribe(int64_t public_id, Sub* sub, int64_t resume_from,
                     SubscribeAckMsg* ack, std::string* error);

  // Translates a raw server emission to its public id, applies high-water
  // dedup, and buffers it. Unknown server ids are dropped (stale pushes
  // from a retired subscription) unless orphan collection is on.
  void AcceptEmission(EmissionMsg emission);

  // Walks the endpoint list until a primary accepts us, then re-subscribes
  // everything (resuming from high-water marks) and re-ingests the
  // retained batch tail. On success `recovered_boundary_` holds the
  // server's stream position.
  bool Recover(std::string* error);

  // One request/reply exchange: sends `request`, reads until a frame of
  // Reply::kType arrives (buffering pushes on the way) and decodes it into
  // `*reply`. Closes the socket on any failure.
  template <class Request, class Reply>
  bool Call(const Request& request, Reply* reply, std::string* error);

  // Sends one encoded frame. Closes the socket on failure.
  bool SendFrame(const std::string& frame, std::string* error);

  // Reads frames until one of type `expected` arrives, buffering
  // emissions/errors encountered on the way; the expected payload lands in
  // `*payload`. Closes the socket on EOF, socket error, or framing loss.
  bool ReadUntil(MsgType expected, std::string* payload, std::string* error);

  Socket sock_;
  FrameDecoder decoder_;
  HelloAckMsg server_info_;
  std::vector<EmissionMsg> emissions_;
  std::vector<ErrorMsg> errors_;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;

  // --- reconnect state ---------------------------------------------------
  bool reconnect_armed_ = false;
  ReconnectOptions reconnect_;
  Endpoint connected_endpoint_;
  std::map<int64_t, Sub> subs_;             // public id -> subscription
  std::map<int64_t, int64_t> server_to_public_;
  std::deque<SentBatch> sent_batches_;      // bounded by ingest_replay
  int64_t recovered_boundary_ = kNoResume;  // server position post-recovery
  uint64_t recovered_next_seq_ = 0;         // arrival counter post-recovery
  uint64_t reconnects_ = 0;
  uint64_t dropped_duplicates_ = 0;
  uint64_t last_replayed_ = 0;
  bool last_gap_ = false;
  uint64_t ping_token_ = 0;
  // During a subscribe, replayed emissions arrive before the ack that
  // names their server id; they wait here until the ack adopts them.
  bool collect_orphans_ = false;
  std::vector<EmissionMsg> orphans_;
};

}  // namespace net
}  // namespace sop

#endif  // SOP_NET_CLIENT_H_
