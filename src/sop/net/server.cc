#include "sop/net/server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "sop/common/clock.h"
#include "sop/common/frame.h"
#include "sop/core/session.h"
#include "sop/detector/factory.h"
#include "sop/io/file_util.h"
#include "sop/net/frontend.h"
#include "sop/net/protocol.h"
#include "sop/net/socket.h"
#include "sop/obs/trace.h"

namespace sop {
namespace net {

namespace {

struct IngestOp {
  FrontConnPtr conn;
  IngestMsg msg;
};

/// Resume-ring key: the query's parameters, not its connection-scoped id —
/// a reconnecting subscriber re-describes the same (r, k, win, slide).
using Fingerprint = std::tuple<double, int64_t, int64_t, int64_t>;

Fingerprint FingerprintOf(const OutlierQuery& q) {
  return Fingerprint(q.r, q.k, q.win, q.slide);
}

Frontend::Options FrontOptionsOf(const ServerOptions& o) {
  Frontend::Options f;
  f.host = o.host;
  f.port = o.port;
  f.max_send_queue = o.max_send_queue;
  f.send_policy = o.send_policy;
  f.idle_timeout_ms = o.idle_timeout_ms;
  return f;
}

}  // namespace

struct SopServer::Impl : FrontHandler {
  explicit Impl(ServerOptions opts)
      : options(std::move(opts)), front(FrontOptionsOf(options), this) {}

  ServerOptions options;

  // --- always-on stats: the one source of the server's counts -----------
  // (Connection, frame, byte, shed and idle counts are the front's.)
  struct AtomicStats {
    std::atomic<uint64_t> ingest_batches{0};
    std::atomic<uint64_t> ingest_points{0};
    std::atomic<uint64_t> halo_points{0};
    std::atomic<uint64_t> rejected_points{0};
    std::atomic<uint64_t> emissions{0};
    std::atomic<uint64_t> subscribes{0};
    std::atomic<uint64_t> unsubscribes{0};
    std::atomic<uint64_t> protocol_errors{0};
    std::atomic<uint64_t> checkpoints{0};
    std::atomic<uint64_t> checkpoint_failures{0};
    std::atomic<uint64_t> checkpoint_fallbacks{0};
    std::atomic<uint64_t> promotions{0};
    std::atomic<uint64_t> repl_snapshots_sent{0};
    std::atomic<uint64_t> repl_batches_sent{0};
    std::atomic<uint64_t> repl_snapshots_applied{0};
    std::atomic<uint64_t> repl_batches_applied{0};
    std::atomic<uint64_t> repl_resyncs{0};
    std::atomic<uint64_t> resume_replayed{0};
    std::atomic<uint64_t> resume_gaps{0};
    std::atomic<bool> resumed{false};
  };
  AtomicStats stats;

  // --- serving state -----------------------------------------------------
  std::thread detect_thread;

  std::atomic<uint32_t> role{static_cast<uint32_t>(ServerRole::kPrimary)};

  // The session (and its stream position) and the resume ring. Advance/
  // AddQuery/RemoveQuery/SaveState and every ring read/write serialize here;
  // the detection loop holds it for the duration of each batch, and a
  // subscribe-with-resume holds it across ring replay + registration so no
  // batch can interleave (that atomicity is the exactly-once guarantee).
  std::mutex session_mu;
  std::unique_ptr<SopSession> session;        // guarded by session_mu
  int64_t batches_since_checkpoint = 0;       // guarded by session_mu

  // Retained emissions per query fingerprint, newest at the back.
  struct RingState {
    int64_t evicted_to = kNoResume;  // highest boundary ever evicted
    std::deque<ResumeRingShard::Entry> entries;
  };
  std::map<Fingerprint, RingState> ring;      // guarded by session_mu

  // Connections carrying inbound replication (we are a standby and a
  // primary ships state over them). Losing one is primary loss.
  std::mutex repl_conns_mu;
  std::set<const FrontConn*> repl_conns;      // guarded by repl_conns_mu

  // Scale-out plane (DESIGN.md Sec. 17): the shard assignment a router
  // declared for this worker. Informational — routing is the router's job
  // — but a second, conflicting declaration is refused so two routers
  // cannot silently split-brain one worker.
  std::mutex shard_mu;
  bool shard_set = false;                     // guarded by shard_mu
  ShardConfigMsg shard;                       // guarded by shard_mu

  // Bounded reader -> detection-loop handoff. A full queue blocks readers,
  // so ingest backpressure propagates to the client's TCP stream.
  std::mutex ingest_mu;
  std::condition_variable ingest_cv_push;     // detection loop waits
  std::condition_variable ingest_cv_pop;      // readers wait for room
  std::deque<IngestOp> ingest_queue;          // guarded by ingest_mu

  // Primary -> standby replication: the detection loop enqueues encoded
  // kReplBatch frames; ReplLoop ships them in order, one ack per frame,
  // and falls back to a full snapshot whenever the chain breaks.
  std::mutex repl_mu;
  std::condition_variable repl_cv;
  std::deque<std::string> repl_queue;         // guarded by repl_mu
  bool repl_need_snapshot = false;            // guarded by repl_mu
  std::thread repl_thread;

  std::atomic<bool> stopping{false};
  std::atomic<bool> killing{false};
  bool started = false;
  bool stopped = false;

  // Declared last: it calls back into everything above until it stops.
  Frontend front;

  // --- implementation ----------------------------------------------------

  ServerRole RoleNow() const {
    return static_cast<ServerRole>(role.load(std::memory_order_relaxed));
  }

  // Retires a closed connection's subscriptions. On a standby with
  // promote_on_loss, losing the inbound replication connection is primary
  // loss: promote.
  void OnClose(const FrontConnPtr& conn,
               std::map<int64_t, int64_t> subs) override {
    if (!subs.empty()) {
      std::lock_guard<std::mutex> lock(session_mu);
      for (const auto& entry : subs) session->RemoveQuery(entry.first);
    }
    bool was_repl = false;
    {
      std::lock_guard<std::mutex> lock(repl_conns_mu);
      was_repl = repl_conns.erase(conn.get()) > 0;
    }
    if (was_repl && options.standby && options.promote_on_loss &&
        !stopping.load(std::memory_order_relaxed) &&
        !killing.load(std::memory_order_relaxed)) {
      Promote();
    }
  }

  // The front began tearing down: refuse further ingest and release the
  // readers (and the detection loop) waiting on the ingest queue. Set under
  // ingest_mu, so a reader that the flag turns away also sees the front's
  // own stop, and leaves its connection for the drain.
  void OnTeardown() override {
    std::lock_guard<std::mutex> lock(ingest_mu);
    stopping.store(true, std::memory_order_relaxed);
    ingest_cv_push.notify_all();
    ingest_cv_pop.notify_all();
  }

  // Marks `conn` as carrying inbound replication. A connection already
  // closing stays unmarked, so every mark is cleared by its OnClose.
  void MarkRepl(const FrontConnPtr& conn) {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closing) return;
    std::lock_guard<std::mutex> repl_lock(repl_conns_mu);
    repl_conns.insert(conn.get());
  }

  // Standby -> primary: start serving from the last replicated boundary.
  // The session's emission schedule is a deterministic function of the
  // boundary, so subscribers that reconnect here and resume see exactly
  // the emissions an uninterrupted primary would have produced.
  void Promote() {
    {
      std::lock_guard<std::mutex> lock(session_mu);
      if (RoleNow() != ServerRole::kStandby) return;
      // Queries replicated from the primary's snapshot belonged to its
      // subscribers; ours re-register on reconnect.
      for (const QueryId id : session->RegisteredQueryIds()) {
        session->RemoveQuery(id);
      }
      role.store(static_cast<uint32_t>(ServerRole::kPrimary),
                 std::memory_order_relaxed);
    }
    stats.promotions.fetch_add(1, std::memory_order_relaxed);
  }

  void CountProtocolError() {
    stats.protocol_errors.fetch_add(1, std::memory_order_relaxed);
  }

  // Counts one protocol error and tells the client why. Returns false, so
  // a dispatch path that must drop the connection can `return` it.
  bool SendError(const FrontConnPtr& conn, std::string message) {
    CountProtocolError();
    front.Send(conn, EncodeError(ErrorMsg{std::move(message)}),
               /*droppable=*/false);
    return false;
  }

  // Framing lost: tell the client why (best effort); the front drops it.
  void OnFramingError(const FrontConnPtr& conn,
                      const std::string& error) override {
    SendError(conn, error);
  }

  // Appends one emission to its fingerprint's ring slice, bounded by
  // options.resume_ring with the eviction horizon tracked so resumes past
  // it can be flagged `gap`. session_mu held by the caller.
  void AppendRingLocked(const OutlierQuery& query, int64_t boundary,
                        bool degraded, const std::vector<Seq>& outliers) {
    RingState& shard = ring[FingerprintOf(query)];
    // Replication can re-deliver a boundary the ring already holds (stale
    // batch after a resync); the ring keeps one entry per boundary.
    if (!shard.entries.empty() && shard.entries.back().boundary >= boundary) {
      return;
    }
    ResumeRingShard::Entry entry;
    entry.boundary = boundary;
    entry.degraded = degraded;
    entry.outliers = outliers;
    shard.entries.push_back(std::move(entry));
    while (shard.entries.size() > options.resume_ring) {
      shard.evicted_to =
          std::max(shard.evicted_to, shard.entries.front().boundary);
      shard.entries.pop_front();
    }
  }

  // The full server state as one kReplSnapshot frame: session blob plus
  // resume ring. One serializer feeds both replication and the checkpoint
  // file (doubly CRC'd: the frame and the blob inside it). session_mu held.
  std::string BuildSnapshotFrameLocked() {
    ReplSnapshotMsg msg;
    msg.state = session->SaveState();
    msg.ring.reserve(ring.size());
    for (const auto& kv : ring) {
      ResumeRingShard shard;
      shard.query.r = std::get<0>(kv.first);
      shard.query.k = std::get<1>(kv.first);
      shard.query.win = std::get<2>(kv.first);
      shard.query.slide = std::get<3>(kv.first);
      shard.evicted_to = kv.second.evicted_to;
      shard.entries.assign(kv.second.entries.begin(),
                           kv.second.entries.end());
      msg.ring.push_back(std::move(shard));
    }
    return EncodeReplSnapshot(msg);
  }

  std::string BuildSnapshotFrame() {
    std::lock_guard<std::mutex> lock(session_mu);
    return BuildSnapshotFrameLocked();
  }

  void RestoreRingLocked(const std::vector<ResumeRingShard>& shards) {
    ring.clear();
    for (const ResumeRingShard& s : shards) {
      RingState& shard = ring[FingerprintOf(s.query)];
      shard.evicted_to = s.evicted_to;
      shard.entries.assign(s.entries.begin(), s.entries.end());
    }
  }

  // Points the session's detector compilation at options.detector, exactly
  // as Start() does — also used to configure the fresh session a standby
  // builds for each applied snapshot. "sop" keeps the session's own
  // SopDetector, so subscribe/unsubscribe can take the overlay-swap path
  // instead of always rebuilding and replaying history.
  void ConfigureSession(SopSession* s) const {
    const std::string detector_name = options.detector;
    if (detector_name == "sop") return;
    s->SetDetectorBuilder([detector_name](const Workload& workload) {
      return CreateDetector(detector_name, workload);
    });
  }

  void MarkNeedSnapshot() {
    std::lock_guard<std::mutex> lock(repl_mu);
    repl_need_snapshot = true;
  }

  // Hands one encoded kReplBatch frame to the replication thread. A queue
  // overflow (standby slower than the stream) drops the backlog and
  // resyncs with one snapshot instead of stalling the detection loop.
  void EnqueueRepl(std::string frame) {
    std::lock_guard<std::mutex> lock(repl_mu);
    if (repl_need_snapshot) return;  // the pending snapshot covers this
    if (repl_queue.size() >= options.max_repl_queue) {
      repl_queue.clear();
      repl_need_snapshot = true;
      stats.repl_resyncs.fetch_add(1, std::memory_order_relaxed);
    } else {
      repl_queue.push_back(std::move(frame));
    }
    repl_cv.notify_one();
  }

  // Primary side of replication: ship frames in order, await one ReplAck
  // per frame, heal every failure (connection loss, timeout, standby NAK)
  // by reconnecting and shipping a fresh snapshot. Runs on its own thread;
  // exits when stopping with an empty queue (graceful flush) or on kill.
  void ReplLoop() {
    Socket sock;
    FrameDecoder decoder;
    char buf[64 << 10];
    for (;;) {
      std::string frame;
      bool is_snapshot = false;
      {
        std::unique_lock<std::mutex> lock(repl_mu);
        repl_cv.wait(lock, [&] {
          return stopping.load(std::memory_order_relaxed) ||
                 killing.load(std::memory_order_relaxed) ||
                 repl_need_snapshot || !repl_queue.empty();
        });
        if (killing.load(std::memory_order_relaxed)) return;
        if (repl_need_snapshot) {
          // Cleared before the build: the snapshot is taken after, so it
          // covers every batch advanced up to now — including everything
          // queued, which is why the queue can be dropped.
          repl_need_snapshot = false;
          repl_queue.clear();
          is_snapshot = true;
        } else if (!repl_queue.empty()) {
          frame = std::move(repl_queue.front());
          repl_queue.pop_front();
        } else {
          return;  // stopping and flushed
        }
      }
      if (is_snapshot) frame = BuildSnapshotFrame();

      std::string error;
      if (!sock.valid()) {
        sock = ConnectTcp(options.replicate_host, options.replicate_port,
                          &error);
        if (!sock.valid()) {
          // Standby down. The frame in hand is lost to this attempt;
          // resync with a snapshot when the standby returns.
          MarkNeedSnapshot();
          if (stopping.load(std::memory_order_relaxed) ||
              killing.load(std::memory_order_relaxed)) {
            return;
          }
          SleepMillis(50);
          continue;
        }
        decoder = FrameDecoder();
        // No handshake: the standby identifies replication by the frames
        // themselves. A batch hitting a fresh standby session NAKs into a
        // snapshot on its own (chain check), so nothing special is needed.
      }

      if (!SendAll(sock, frame, &error)) {
        sock.Close();
        MarkNeedSnapshot();
        if (stopping.load(std::memory_order_relaxed)) return;
        continue;
      }

      // Await the standby's ack for this frame (synchronous per-frame
      // replication keeps the standby at most one batch behind an ack).
      ReplAckMsg ack;
      bool acked = false;
      bool dead = false;
      while (!acked && !dead) {
        std::string payload;
        const FrameDecoder::Status status = decoder.Next(&payload, &error);
        if (status == FrameDecoder::Status::kFrame) {
          MsgType type;
          if (PeekType(payload, &type, &error) &&
              type == MsgType::kReplAck &&
              DecodeReplAck(payload, &ack, &error)) {
            acked = true;
          } else {
            dead = true;  // standby refused (promoted?) or stream garbage
          }
          continue;
        }
        if (status == FrameDecoder::Status::kError) {
          dead = true;
          break;
        }
        const int64_t n = RecvSomeTimeout(
            sock, buf, sizeof(buf), options.repl_ack_timeout_ms, &error);
        if (n == kRecvTimedOut || n <= 0) {
          dead = true;
          break;
        }
        decoder.Append(buf, static_cast<size_t>(n));
      }
      if (!acked) {
        sock.Close();
        MarkNeedSnapshot();
        if (stopping.load(std::memory_order_relaxed)) return;
        continue;
      }
      if (is_snapshot) {
        stats.repl_snapshots_sent.fetch_add(1, std::memory_order_relaxed);
      } else {
        stats.repl_batches_sent.fetch_add(1, std::memory_order_relaxed);
      }
      if (ack.need_snapshot) {
        stats.repl_resyncs.fetch_add(1, std::memory_order_relaxed);
        MarkNeedSnapshot();
      }
    }
  }

  // Handles one complete, CRC-verified frame payload from `conn`.
  // Returns false when the connection must be dropped.
  bool OnFrame(const FrontConnPtr& conn, const std::string& payload) override {
    MsgType type;
    std::string error;
    if (!PeekType(payload, &type, &error)) return SendError(conn, error);
    switch (type) {
      case MsgType::kHello: {
        HelloMsg hello;
        if (!DecodeHello(payload, &hello, &error)) {
          return SendError(conn, error);
        }
        if (hello.protocol_version != kProtocolVersion) {
          return SendError(conn, "protocol version mismatch: server speaks v" +
                                     std::to_string(kProtocolVersion));
        }
        HelloAckMsg ack;
        ack.protocol_version = kProtocolVersion;
        ack.window_type = static_cast<uint32_t>(options.window_type);
        ack.metric = static_cast<uint32_t>(options.metric);
        ack.role = role.load(std::memory_order_relaxed);
        ack.detector = options.detector;
        {
          std::lock_guard<std::mutex> session_lock(session_mu);
          ack.last_boundary = session->last_boundary();
          ack.next_seq = static_cast<uint64_t>(session->next_seq());
        }
        front.Send(conn, EncodeHelloAck(ack), /*droppable=*/false);
        return true;
      }
      case MsgType::kIngest: {
        IngestOp op;
        op.conn = conn;
        if (!DecodeIngest(payload, &op.msg, &error)) {
          return SendError(conn, error);
        }
        if (RoleNow() == ServerRole::kStandby) {
          // A standby's stream position is owned by replication; clients
          // must ingest at the primary.
          SendError(conn, "standby: ingest is served by the primary");
          IngestAckMsg ack;
          ack.boundary = op.msg.boundary;
          front.Send(conn, EncodeIngestAck(ack), /*droppable=*/false);
          return true;
        }
        std::unique_lock<std::mutex> lock(ingest_mu);
        ingest_cv_pop.wait(lock, [&] {
          return stopping.load(std::memory_order_relaxed) ||
                 killing.load(std::memory_order_relaxed) ||
                 ingest_queue.size() < options.max_ingest_queue;
        });
        if (stopping.load(std::memory_order_relaxed) ||
            killing.load(std::memory_order_relaxed)) {
          return false;
        }
        ingest_queue.push_back(std::move(op));
        SOP_GAUGE_SET_MAX("net/server/ingest_queue_depth",
                          ingest_queue.size());
        ingest_cv_push.notify_one();
        return true;
      }
      case MsgType::kSubscribe: {
        SubscribeMsg sub;
        if (!DecodeSubscribe(payload, &sub, &error)) {
          return SendError(conn, error);
        }
        if (RoleNow() == ServerRole::kStandby) {
          SubscribeAckMsg ack;
          ack.error = "standby: subscriptions are served by the primary";
          front.Send(conn, EncodeSubscribeAck(ack), /*droppable=*/false);
          return true;
        }
        // Pre-validate exactly as SopSession::AddQuery would CHECK: a bad
        // query from the wire must refuse the subscription, not abort the
        // server process.
        Workload probe(options.window_type, options.metric);
        probe.AddQuery(sub.query);
        const std::string verdict = probe.Validate();
        if (!verdict.empty()) {
          SubscribeAckMsg ack;
          ack.query_id = 0;
          ack.error = verdict;
          front.Send(conn, EncodeSubscribeAck(ack), /*droppable=*/false);
          return true;
        }
        SubscribeAckMsg ack;
        {
          // Registration, ring replay and the subscription record are one
          // atomic step under session_mu: no batch can advance between
          // them, so replayed + suppressed + live emissions partition the
          // boundary axis exactly — each emission delivered once.
          std::lock_guard<std::mutex> session_lock(session_mu);
          ack.query_id = session->AddQuery(sub.query);
          int64_t suppress_to =
              sub.resume_from == kNoResume ? kNoResume : sub.resume_from;
          std::vector<std::string> replay;
          if (sub.resume_from != kNoResume) {
            const auto it = ring.find(FingerprintOf(sub.query));
            if (it != ring.end()) {
              const RingState& shard = it->second;
              // The ring wrapped past the client's high-water mark:
              // emissions in (resume_from, evicted_to] are gone for good.
              if (shard.evicted_to > sub.resume_from) ack.gap = true;
              for (const ResumeRingShard::Entry& e : shard.entries) {
                if (e.boundary <= sub.resume_from) continue;
                EmissionMsg m;
                m.query_id = ack.query_id;
                m.boundary = e.boundary;
                m.degraded = e.degraded;
                m.outliers = e.outliers;
                suppress_to = std::max(suppress_to, e.boundary);
                replay.push_back(EncodeEmission(m));
              }
            }
            // No shard at all: nothing was ever retained for this
            // fingerprint, so nothing is known lost — a fresh start.
          }
          ack.replayed = replay.size();
          {
            std::lock_guard<std::mutex> lock(conn->mu);
            conn->subs.emplace(ack.query_id, suppress_to);
            if (ack.gap) conn->degraded_pending = true;
          }
          stats.subscribes.fetch_add(1, std::memory_order_relaxed);
          if (ack.gap) {
            stats.resume_gaps.fetch_add(1, std::memory_order_relaxed);
          }
          stats.resume_replayed.fetch_add(replay.size(),
                                          std::memory_order_relaxed);
          // Replayed emissions precede the ack on the wire; both are
          // control-paced (never shed). Enqueued under session_mu so a
          // concurrent batch's live emissions cannot jump ahead of them.
          for (std::string& f : replay) {
            front.Send(conn, std::move(f), /*droppable=*/false);
          }
          front.Send(conn, EncodeSubscribeAck(ack), /*droppable=*/false);
        }
        return true;
      }
      case MsgType::kUnsubscribe: {
        UnsubscribeMsg unsub;
        if (!DecodeUnsubscribe(payload, &unsub, &error)) {
          return SendError(conn, error);
        }
        // A client may only retire its own subscriptions.
        bool owned = false;
        {
          std::lock_guard<std::mutex> lock(conn->mu);
          owned = conn->subs.erase(unsub.query_id) > 0;
        }
        UnsubscribeAckMsg ack;
        if (owned) {
          std::lock_guard<std::mutex> session_lock(session_mu);
          ack.ok = session->RemoveQuery(unsub.query_id);
        }
        if (ack.ok) {
          stats.unsubscribes.fetch_add(1, std::memory_order_relaxed);
        }
        front.Send(conn, EncodeUnsubscribeAck(ack), /*droppable=*/false);
        return true;
      }
      case MsgType::kPing: {
        PingMsg ping;
        if (!DecodePing(payload, &ping, &error)) return SendError(conn, error);
        PongMsg pong;
        pong.token = ping.token;
        pong.role = role.load(std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> session_lock(session_mu);
          pong.last_boundary = session->last_boundary();
        }
        {
          std::lock_guard<std::mutex> lock(ingest_mu);
          pong.ingest_queue_depth = ingest_queue.size();
        }
        pong.send_queue_depth = front.SendQueueDepth();
        pong.active_connections = front.stats().active;
        front.Send(conn, EncodePong(pong), /*droppable=*/false);
        return true;
      }
      case MsgType::kReplSnapshot: {
        if (!options.standby) {
          return SendError(conn, "not a standby: replication refused");
        }
        ReplSnapshotMsg msg;
        if (!DecodeReplSnapshot(payload, &msg, &error)) {
          return SendError(conn, error);
        }
        if (RoleNow() != ServerRole::kStandby) {
          // Already promoted: a resurrected old primary must not demote
          // this server's live stream. It gets an error, not an ack.
          SendError(conn, "promoted: no longer accepting replication");
          return false;
        }
        MarkRepl(conn);
        // Restore into a fresh session so a failed apply leaves the
        // current one untouched.
        auto fresh = std::make_unique<SopSession>(options.window_type,
                                                  options.metric,
                                                  options.history_window);
        ConfigureSession(fresh.get());
        std::string load_error;
        const bool ok = msg.state.empty()
                            ? true  // empty primary: fresh session as-is
                            : fresh->LoadState(msg.state, &load_error);
        if (!ok) CountProtocolError();
        ReplAckMsg ack;
        {
          std::lock_guard<std::mutex> session_lock(session_mu);
          if (ok) {
            for (const QueryId id : fresh->RegisteredQueryIds()) {
              fresh->RemoveQuery(id);
            }
            session = std::move(fresh);
            RestoreRingLocked(msg.ring);
            batches_since_checkpoint = 0;
            stats.repl_snapshots_applied.fetch_add(
                1, std::memory_order_relaxed);
          }
          ack.boundary = session->last_boundary();
        }
        ack.need_snapshot = !ok;
        front.Send(conn, EncodeReplAck(ack), /*droppable=*/false);
        return true;
      }
      case MsgType::kReplBatch: {
        if (!options.standby) {
          return SendError(conn, "not a standby: replication refused");
        }
        ReplBatchMsg msg;
        if (!DecodeReplBatch(payload, &msg, &error)) {
          return SendError(conn, error);
        }
        if (RoleNow() != ServerRole::kStandby) {
          return SendError(conn, "promoted: no longer accepting replication");
        }
        MarkRepl(conn);
        ReplAckMsg ack;
        std::string checkpoint_frame;
        {
          std::lock_guard<std::mutex> session_lock(session_mu);
          const int64_t last_boundary = session->last_boundary();
          ack.boundary = last_boundary;
          if (msg.boundary <= last_boundary) {
            // Stale duplicate (resent across a resync): already applied.
          } else if (msg.prev_boundary != last_boundary) {
            // Chain broken — batches were lost between the primary and
            // us. Demand a snapshot rather than apply a gapped stream.
            ack.need_snapshot = true;
          } else if (!session->CheckBatch(msg.points, msg.boundary).empty()) {
            // A batch the primary's session could not have accepted: apply
            // nothing, and resync from a snapshot.
            CountProtocolError();
            ack.need_snapshot = true;
          } else {
            const uint64_t batch_size = msg.points.size();
            // The standby has no registered queries, so Advance yields
            // nothing; the primary's own emissions arrive in msg.results
            // and keep the ring bit-identical to the primary's.
            session->Advance(std::move(msg.points), msg.boundary);
            for (const EmissionRecord& rec : msg.results) {
              AppendRingLocked(rec.query, rec.boundary, rec.degraded,
                               rec.outliers);
            }
            ack.boundary = msg.boundary;
            stats.ingest_batches.fetch_add(1, std::memory_order_relaxed);
            stats.ingest_points.fetch_add(batch_size,
                                          std::memory_order_relaxed);
            stats.repl_batches_applied.fetch_add(1,
                                                 std::memory_order_relaxed);
            if (!options.checkpoint_path.empty() &&
                ++batches_since_checkpoint >=
                    options.checkpoint_every_batches) {
              batches_since_checkpoint = 0;
              checkpoint_frame = BuildSnapshotFrameLocked();
            }
          }
        }
        front.Send(conn, EncodeReplAck(ack), /*droppable=*/false);
        if (!checkpoint_frame.empty()) {
          PublishCheckpoint(std::move(checkpoint_frame));
        }
        return true;
      }
      case MsgType::kShardConfig: {
        ShardConfigMsg msg;
        if (!DecodeShardConfig(payload, &msg, &error)) {
          return SendError(conn, error);
        }
        ShardConfigAckMsg ack;
        {
          std::lock_guard<std::mutex> lock(shard_mu);
          if (shard_set && (shard.shard_index != msg.shard_index ||
                            shard.num_shards != msg.num_shards ||
                            shard.lo != msg.lo || shard.hi != msg.hi ||
                            shard.halo != msg.halo)) {
            ack.ok = false;
            ack.error = "conflicting shard config already declared";
          } else {
            // First declaration, or an idempotent re-send from a
            // reconnecting router.
            shard = msg;
            shard_set = true;
            ack.ok = true;
          }
        }
        front.Send(conn, EncodeShardConfigAck(ack), /*droppable=*/false);
        return true;
      }
      default:
        // Server-bound streams never carry server-push types; a client
        // sending one is confused but not fatal.
        SendError(conn, std::string("unexpected client message: ") +
                            MsgTypeName(type));
        return true;
    }
  }

  // Fans one batch's session results out to subscribers. Returns how many
  // emission frames were enqueued for `ingester` (reported in its ack).
  uint64_t RouteEmissions(const std::vector<SessionResult>& results,
                          const FrontConnPtr& ingester) {
    uint64_t to_ingester = 0;
    const std::vector<FrontConnPtr> snapshot = front.Connections();
    for (const SessionResult& r : results) {
      for (const FrontConnPtr& conn : snapshot) {
        EmissionMsg m;
        {
          std::lock_guard<std::mutex> lock(conn->mu);
          if (conn->closing) continue;
          const auto it = conn->subs.find(r.query_id);
          if (it == conn->subs.end()) continue;
          // Already delivered by resume replay: suppress the duplicate.
          if (r.boundary <= it->second) continue;
          m.degraded = r.degraded || conn->degraded_pending;
          conn->degraded_pending = false;
        }
        m.query_id = r.query_id;
        m.boundary = r.boundary;
        m.outliers = r.outliers;
        if (front.Send(conn, EncodeEmission(m), /*droppable=*/true)) {
          stats.emissions.fetch_add(1, std::memory_order_relaxed);
          if (conn == ingester) ++to_ingester;
        }
      }
    }
    return to_ingester;
  }

  // Publishes one snapshot frame as the newest checkpoint generation.
  // `blob` was produced under session_mu by the caller.
  void PublishCheckpoint(std::string blob) {
    std::string error;
    if (io::PublishGeneration(options.checkpoint_path, std::move(blob),
                              options.checkpoint_generations, &error)) {
      stats.checkpoints.fetch_add(1, std::memory_order_relaxed);
    } else {
      // The previous generations stay valid.
      stats.checkpoint_failures.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Restores one checkpoint file (a kReplSnapshot frame: session state
  // plus resume ring) into the fresh session. Start() only.
  bool RestoreCheckpoint(const std::string& blob, std::string* error) {
    std::string_view payload;
    ReplSnapshotMsg snap;  // the decoder refuses every other message type
    if (!UnwrapFrame(blob, &payload, error) ||
        !DecodeReplSnapshot(payload, &snap, error) ||
        !session->LoadState(snap.state, error)) {
      return false;
    }
    RestoreRingLocked(snap.ring);
    return true;
  }

  void DetectLoop() {
    const bool replicate = !options.replicate_host.empty();
    for (;;) {
      IngestOp op;
      {
        std::unique_lock<std::mutex> lock(ingest_mu);
        ingest_cv_push.wait(lock, [&] {
          return stopping.load(std::memory_order_relaxed) ||
                 !ingest_queue.empty();
        });
        if (killing.load(std::memory_order_relaxed)) return;  // crash: drop
        if (ingest_queue.empty()) return;  // stopping and drained
        op = std::move(ingest_queue.front());
        ingest_queue.pop_front();
        ingest_cv_pop.notify_one();
      }

      std::vector<SessionResult> results;
      std::string checkpoint_blob;
      const uint64_t batch_size = op.msg.points.size();
      uint64_t halo_size = 0;  // replicas in the batch (owner flag 0)
      for (const uint8_t o : op.msg.owner) halo_size += (o == 0) ? 1 : 0;
      std::vector<Point> repl_points;
      if (replicate) repl_points = op.msg.points;  // before the move below
      std::vector<EmissionRecord> repl_records;
      int64_t prev_boundary = kNoResume;
      std::string refusal;
      uint64_t next_seq = 0;
      {
        std::lock_guard<std::mutex> lock(session_mu);
        // Pre-validate what SopSession::Advance would CHECK. Bad wire input
        // gets an error reply, not a process abort.
        refusal = session->CheckBatch(op.msg.points, op.msg.boundary);
        if (refusal.empty()) {
          prev_boundary = session->last_boundary();
          SOP_TRACE("net/server/advance_ms");
          results = session->Advance(std::move(op.msg.points),
                                     op.msg.boundary);
          stats.ingest_batches.fetch_add(1, std::memory_order_relaxed);
          stats.ingest_points.fetch_add(batch_size,
                                        std::memory_order_relaxed);
          stats.halo_points.fetch_add(halo_size, std::memory_order_relaxed);
          // Retain every emission for reconnect resume (and replication),
          // keyed by the query's parameters — connection-scoped ids die
          // with their connection.
          for (const SessionResult& r : results) {
            const OutlierQuery* q = session->FindQuery(r.query_id);
            if (q == nullptr) continue;  // retired mid-batch
            AppendRingLocked(*q, r.boundary, r.degraded, r.outliers);
            if (replicate) {
              EmissionRecord rec;
              rec.query = *q;
              rec.boundary = r.boundary;
              rec.degraded = r.degraded;
              rec.outliers = r.outliers;
              repl_records.push_back(std::move(rec));
            }
          }
          if (!options.checkpoint_path.empty() &&
              ++batches_since_checkpoint >=
                  options.checkpoint_every_batches) {
            batches_since_checkpoint = 0;
            checkpoint_blob = BuildSnapshotFrameLocked();
          }
        }
        next_seq = static_cast<uint64_t>(session->next_seq());
      }

      if (!refusal.empty()) {
        stats.rejected_points.fetch_add(batch_size, std::memory_order_relaxed);
        SendError(op.conn, std::move(refusal));
        IngestAckMsg ack;
        ack.boundary = op.msg.boundary;
        ack.accepted = 0;
        ack.emissions = 0;
        ack.next_seq = next_seq;
        front.Send(op.conn, EncodeIngestAck(ack), /*droppable=*/false);
        continue;
      }

      if (replicate) {
        ReplBatchMsg rb;
        rb.prev_boundary = prev_boundary;
        rb.boundary = op.msg.boundary;
        rb.points = std::move(repl_points);
        rb.results = std::move(repl_records);
        EnqueueRepl(EncodeReplBatch(rb));
      }

      // Emissions first, then the ack on the same queue: a client that
      // waits for its ack is guaranteed to have this batch's emissions
      // already buffered ahead of it.
      IngestAckMsg ack;
      ack.boundary = op.msg.boundary;
      ack.accepted = batch_size;
      ack.emissions = RouteEmissions(results, op.conn);
      ack.next_seq = next_seq;
      front.Send(op.conn, EncodeIngestAck(ack), /*droppable=*/false);

      if (!checkpoint_blob.empty()) {
        PublishCheckpoint(std::move(checkpoint_blob));
      }
    }
  }
};

SopServer::SopServer(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

SopServer::~SopServer() { Stop(); }

bool SopServer::Start(std::string* error) {
  Impl& im = *impl_;
  if (im.started) {
    if (error != nullptr) *error = "server already started";
    return false;
  }
  if (!IsKnownDetector(im.options.detector)) {
    if (error != nullptr) *error = UnknownDetectorMessage(im.options.detector);
    return false;
  }
  if (im.options.history_window <= 0 || im.options.max_send_queue == 0 ||
      im.options.max_ingest_queue == 0 ||
      im.options.checkpoint_every_batches <= 0 ||
      im.options.checkpoint_generations < 1 ||
      im.options.resume_ring == 0 || im.options.max_repl_queue == 0 ||
      im.options.repl_ack_timeout_ms <= 0) {
    if (error != nullptr) *error = "server options out of range";
    return false;
  }
  const bool replicate = !im.options.replicate_host.empty();
  if (replicate &&
      (im.options.replicate_port <= 0 || im.options.replicate_port > 65535)) {
    if (error != nullptr) *error = "replicate_port out of range";
    return false;
  }
  if (replicate && im.options.standby) {
    if (error != nullptr) {
      *error = "a standby cannot itself replicate (chaining unsupported)";
    }
    return false;
  }
  if (im.options.promote_on_loss && !im.options.standby) {
    if (error != nullptr) *error = "promote_on_loss requires standby";
    return false;
  }

  im.role.store(static_cast<uint32_t>(im.options.standby
                                          ? ServerRole::kStandby
                                          : ServerRole::kPrimary),
                std::memory_order_relaxed);
  im.session = std::make_unique<SopSession>(im.options.window_type,
                                            im.options.metric,
                                            im.options.history_window);
  im.ConfigureSession(im.session.get());

  // Resume from the previous incarnation's checkpoint when one exists,
  // walking the generations newest-first past corrupt or missing files.
  // Restored queries belonged to connections that no longer exist, so they
  // are retired; the restored history, stream position and resume ring
  // remain, and a reconnecting subscriber resumes from them.
  if (!im.options.checkpoint_path.empty()) {
    std::string restore_error;
    const int generation = io::ReadNewestGeneration(
        im.options.checkpoint_path, im.options.checkpoint_generations,
        [&im](const std::string& blob, std::string* decode_error) {
          return im.RestoreCheckpoint(blob, decode_error);
        },
        &restore_error);
    if (generation > 0) {
      im.stats.checkpoint_fallbacks.fetch_add(1, std::memory_order_relaxed);
    }
    if (generation >= 0) {
      for (const QueryId id : im.session->RegisteredQueryIds()) {
        im.session->RemoveQuery(id);
      }
      im.stats.resumed.store(true, std::memory_order_relaxed);
    }
    // No restorable generation is not fatal: serve fresh.
  }

  if (!im.front.Start(&port_, error)) return false;
  im.detect_thread = std::thread([&im] { im.DetectLoop(); });
  if (replicate) {
    im.repl_thread = std::thread([&im] { im.ReplLoop(); });
  }
  im.started = true;
  return true;
}

void SopServer::Stop() {
  Impl& im = *impl_;
  if (!im.started || im.stopped) return;
  im.stopped = true;

  // Graceful drain, in dependency order. 1) Stop accepting, shut the read
  // side of every connection and join the readers: they exit on EOF
  // without closing, so queued outbound frames survive. OnTeardown sets
  // `stopping` and wakes readers blocked on a full ingest queue.
  im.front.StopReading();

  // 2) No producers left: the detection loop drains the ingest queue and
  // exits (`stopping` is set), enqueueing the final acks/emissions.
  if (im.detect_thread.joinable()) im.detect_thread.join();

  // 3) Flush replication: the standby gets every batch up to the stop
  // point (bounded by its own liveness — a dead standby does not wedge
  // shutdown).
  if (im.repl_thread.joinable()) {
    {
      std::lock_guard<std::mutex> lock(im.repl_mu);
      im.repl_cv.notify_all();
    }
    im.repl_thread.join();
  }

  // 4) Let writers drain their send queues. A peer that refuses to read
  // its socket cannot hold shutdown hostage: past the deadline its
  // connection is aborted.
  im.front.DrainWriters(std::chrono::steady_clock::now() +
                        std::chrono::seconds(2));

  // 5) Final checkpoint: a restart resumes from the exact stop point.
  if (!im.options.checkpoint_path.empty() && im.session != nullptr) {
    im.PublishCheckpoint(im.BuildSnapshotFrame());
  }
}

void SopServer::Kill() {
  Impl& im = *impl_;
  if (!im.started || im.stopped) return;
  im.stopped = true;
  im.killing.store(true, std::memory_order_relaxed);

  // Abort everything: sockets die mid-frame, queued work is dropped, no
  // final checkpoint — exactly what a crashed process leaves behind.
  // (OnTeardown sets `stopping` and wakes the detection loop.)
  im.front.Abort();
  if (im.detect_thread.joinable()) im.detect_thread.join();
  if (im.repl_thread.joinable()) {
    {
      std::lock_guard<std::mutex> lock(im.repl_mu);
      im.repl_cv.notify_all();
    }
    im.repl_thread.join();
  }
}

ServerRole SopServer::role() const { return impl_->RoleNow(); }

ServerStats SopServer::stats() const {
  const Impl::AtomicStats& a = impl_->stats;
  const Frontend::Stats front = impl_->front.stats();
  ServerStats s;
  s.connections = front.connections;
  s.active_clients = front.active;
  s.frames_in = front.frames_in;
  s.frames_out = front.frames_out;
  s.bytes_in = front.bytes_in;
  s.bytes_out = front.bytes_out;
  s.ingest_batches = a.ingest_batches.load(std::memory_order_relaxed);
  s.ingest_points = a.ingest_points.load(std::memory_order_relaxed);
  s.halo_points = a.halo_points.load(std::memory_order_relaxed);
  s.rejected_points = a.rejected_points.load(std::memory_order_relaxed);
  s.emissions = a.emissions.load(std::memory_order_relaxed);
  s.shed_emissions = front.shed_emissions;
  s.subscribes = a.subscribes.load(std::memory_order_relaxed);
  s.unsubscribes = a.unsubscribes.load(std::memory_order_relaxed);
  s.protocol_errors = a.protocol_errors.load(std::memory_order_relaxed);
  s.checkpoints = a.checkpoints.load(std::memory_order_relaxed);
  s.checkpoint_failures =
      a.checkpoint_failures.load(std::memory_order_relaxed);
  s.checkpoint_fallbacks =
      a.checkpoint_fallbacks.load(std::memory_order_relaxed);
  s.idle_disconnects = front.idle_disconnects;
  s.promotions = a.promotions.load(std::memory_order_relaxed);
  s.repl_snapshots_sent =
      a.repl_snapshots_sent.load(std::memory_order_relaxed);
  s.repl_batches_sent = a.repl_batches_sent.load(std::memory_order_relaxed);
  s.repl_snapshots_applied =
      a.repl_snapshots_applied.load(std::memory_order_relaxed);
  s.repl_batches_applied =
      a.repl_batches_applied.load(std::memory_order_relaxed);
  s.repl_resyncs = a.repl_resyncs.load(std::memory_order_relaxed);
  s.resume_replayed = a.resume_replayed.load(std::memory_order_relaxed);
  s.resume_gaps = a.resume_gaps.load(std::memory_order_relaxed);
  s.resumed = a.resumed.load(std::memory_order_relaxed);
  s.role = impl_->RoleNow();
  {
    std::lock_guard<std::mutex> lock(impl_->shard_mu);
    s.sharded = impl_->shard_set;
    s.shard_index = impl_->shard.shard_index;
    s.num_shards = impl_->shard.num_shards;
  }
  {
    std::lock_guard<std::mutex> lock(impl_->session_mu);
    if (impl_->session != nullptr) {
      const SessionChangeStats& c = impl_->session->change_stats();
      s.overlay_changes = c.overlay_changes;
      s.rebuild_changes = c.rebuilds;
      s.replayed_points = c.replayed_points;
      s.last_boundary = impl_->session->last_boundary();
    }
  }
  return s;
}

}  // namespace net
}  // namespace sop
