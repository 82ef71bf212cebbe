#include "sop/net/server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "sop/common/clock.h"
#include "sop/common/fault.h"
#include "sop/common/frame.h"
#include "sop/common/thread_pool.h"
#include "sop/core/session.h"
#include "sop/detector/factory.h"
#include "sop/io/file_util.h"
#include "sop/net/protocol.h"
#include "sop/obs/trace.h"

namespace sop {
namespace net {

namespace {

/// One connected client. The reader thread owns protocol dispatch; the
/// writer thread drains the bounded send queue; everything shared between
/// them (and the detection loop, which enqueues emissions) sits behind mu.
struct Conn {
  explicit Conn(Socket s) : sock(std::move(s)) {}

  Socket sock;
  std::thread reader;
  std::thread writer;
  std::atomic<bool> writer_done{false};  // writer thread has exited

  std::mutex mu;
  std::condition_variable cv_push;  // writer waits: queue non-empty/closing
  std::condition_variable cv_pop;   // kBlock enqueuers wait: queue has room
  std::condition_variable cv_done;  // Stop() waits: writer_done

  struct Outgoing {
    std::string frame;
    bool droppable;  // emissions may be shed; control replies never
  };
  std::deque<Outgoing> sendq;       // guarded by mu
  bool closing = false;             // guarded by mu
  bool hello_done = false;          // guarded by mu (reader-only in practice)
  // This connection carries inbound replication (we are a standby and a
  // primary ships state over it). Its loss is primary loss.
  bool is_repl = false;             // guarded by mu
  // An emission to this subscriber was shed (or its resume had a gap); the
  // next delivered emission carries degraded=true so the loss is visible.
  bool degraded_pending = false;    // guarded by mu
  // Subscribed query id -> suppress boundary: live emissions at or below
  // it were already delivered by resume replay and must not repeat.
  std::map<QueryId, int64_t> subs;  // guarded by mu
};

struct IngestOp {
  std::shared_ptr<Conn> conn;
  IngestMsg msg;
};

/// Resume-ring key: the query's parameters, not its connection-scoped id —
/// a reconnecting subscriber re-describes the same (r, k, win, slide).
using Fingerprint = std::tuple<double, int64_t, int64_t, int64_t>;

Fingerprint FingerprintOf(const OutlierQuery& q) {
  return Fingerprint(q.r, q.k, q.win, q.slide);
}

}  // namespace

struct SopServer::Impl {
  explicit Impl(ServerOptions opts) : options(std::move(opts)) {}

  ServerOptions options;

  // --- always-on stats (obs may be compiled out) -------------------------
  struct AtomicStats {
    std::atomic<uint64_t> connections{0};
    std::atomic<uint64_t> active_clients{0};
    std::atomic<uint64_t> frames_in{0};
    std::atomic<uint64_t> frames_out{0};
    std::atomic<uint64_t> bytes_in{0};
    std::atomic<uint64_t> bytes_out{0};
    std::atomic<uint64_t> ingest_batches{0};
    std::atomic<uint64_t> ingest_points{0};
    std::atomic<uint64_t> halo_points{0};
    std::atomic<uint64_t> emissions{0};
    std::atomic<uint64_t> shed_emissions{0};
    std::atomic<uint64_t> subscribes{0};
    std::atomic<uint64_t> unsubscribes{0};
    std::atomic<uint64_t> protocol_errors{0};
    std::atomic<uint64_t> checkpoints{0};
    std::atomic<uint64_t> checkpoint_failures{0};
    std::atomic<uint64_t> idle_disconnects{0};
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
  Socket listener;
  std::thread accept_thread;
  std::unique_ptr<ThreadPool> pool;
  std::future<void> detect_done;

  std::atomic<uint32_t> role{static_cast<uint32_t>(ServerRole::kPrimary)};

  // The session, its stream position and the resume ring. Advance/AddQuery/
  // RemoveQuery/SaveState and every ring read/write serialize here; the
  // detection loop holds it for the duration of each batch, and a
  // subscribe-with-resume holds it across ring replay + registration so no
  // batch can interleave (that atomicity is the exactly-once guarantee).
  std::mutex session_mu;
  std::unique_ptr<SopSession> session;        // guarded by session_mu
  int64_t last_boundary;                      // guarded by session_mu
  int64_t batches_since_checkpoint = 0;       // guarded by session_mu

  // Retained emissions per query fingerprint, newest at the back.
  struct RingState {
    int64_t evicted_to = kNoResume;  // highest boundary ever evicted
    std::deque<ResumeRingShard::Entry> entries;
  };
  std::map<Fingerprint, RingState> ring;      // guarded by session_mu

  std::mutex conns_mu;
  std::vector<std::shared_ptr<Conn>> conns;   // guarded by conns_mu

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

  // --- implementation ----------------------------------------------------

  ServerRole RoleNow() const {
    return static_cast<ServerRole>(role.load(std::memory_order_relaxed));
  }

  // Enqueues one frame for `conn`'s writer. Droppable frames respect the
  // queue bound under the configured overload policy; control frames
  // bypass the bound (they are request-paced, so the reader's own
  // backpressure already limits them). Returns false if the frame was
  // dropped (connection closing, or shed under kDropOldest).
  bool EnqueueFrame(const std::shared_ptr<Conn>& conn, std::string frame,
                    bool droppable) {
    std::unique_lock<std::mutex> lock(conn->mu);
    if (conn->closing) return false;
    if (droppable && conn->sendq.size() >= options.max_send_queue) {
      if (options.send_policy == OverloadPolicy::kDropOldest) {
        // Shed the oldest queued emission; never a control reply.
        for (auto it = conn->sendq.begin(); it != conn->sendq.end(); ++it) {
          if (it->droppable) {
            conn->sendq.erase(it);
            conn->degraded_pending = true;
            stats.shed_emissions.fetch_add(1, std::memory_order_relaxed);
            SOP_COUNTER_ADD("net/server/shed_emissions", 1);
            break;
          }
        }
      } else {
        // kBlock: lossless backpressure into the detection loop.
        conn->cv_pop.wait(lock, [&] {
          return conn->closing ||
                 conn->sendq.size() < options.max_send_queue;
        });
        if (conn->closing) return false;
      }
    }
    conn->sendq.push_back(Conn::Outgoing{std::move(frame), droppable});
    SOP_GAUGE_SET_MAX("net/server/send_queue_depth", conn->sendq.size());
    conn->cv_push.notify_one();
    return true;
  }

  // Marks `conn` closing, wakes its threads, and retires its
  // subscriptions. On a standby with promote_on_loss, losing the inbound
  // replication connection is primary loss: promote. Idempotent; callable
  // from any thread.
  void CloseConn(const std::shared_ptr<Conn>& conn) {
    std::vector<QueryId> subs;
    bool was_repl = false;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->closing) return;
      conn->closing = true;
      was_repl = conn->is_repl;
      subs.reserve(conn->subs.size());
      for (const auto& entry : conn->subs) subs.push_back(entry.first);
      conn->subs.clear();
      conn->cv_push.notify_all();
      conn->cv_pop.notify_all();
    }
    conn->sock.ShutdownBoth();  // unblocks recv/send in reader/writer
    if (!subs.empty()) {
      std::lock_guard<std::mutex> lock(session_mu);
      for (const QueryId id : subs) session->RemoveQuery(id);
    }
    stats.active_clients.fetch_sub(1, std::memory_order_relaxed);
    SOP_GAUGE_SET("net/server/active_clients",
                  stats.active_clients.load(std::memory_order_relaxed));
    SOP_COUNTER_ADD("net/server/disconnects", 1);
    if (was_repl && options.standby && options.promote_on_loss &&
        !stopping.load(std::memory_order_relaxed) &&
        !killing.load(std::memory_order_relaxed)) {
      Promote();
    }
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
    SOP_COUNTER_ADD("net/server/promotions", 1);
  }

  void WriterLoop(const std::shared_ptr<Conn>& conn) {
    WriterBody(conn);
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->writer_done.store(true, std::memory_order_release);
    }
    conn->cv_done.notify_all();
  }

  void WriterBody(const std::shared_ptr<Conn>& conn) {
    for (;;) {
      Conn::Outgoing out;
      {
        std::unique_lock<std::mutex> lock(conn->mu);
        conn->cv_push.wait(lock, [&] {
          return conn->closing || !conn->sendq.empty();
        });
        // Drain queued frames even when closing: Stop() expects in-flight
        // acks to reach clients before the socket goes down — but a writer
        // stuck on a dead peer still exits via SendAll failure below.
        if (conn->sendq.empty()) return;
        out = std::move(conn->sendq.front());
        conn->sendq.pop_front();
        conn->cv_pop.notify_one();
      }
      std::string error;
      if (!SendAll(conn->sock, out.frame, &error)) {
        CloseConn(conn);
        return;
      }
      stats.frames_out.fetch_add(1, std::memory_order_relaxed);
      stats.bytes_out.fetch_add(out.frame.size(), std::memory_order_relaxed);
      SOP_COUNTER_ADD("net/server/frames_out", 1);
      SOP_COUNTER_ADD("net/server/bytes_out", out.frame.size());
    }
  }

  void SendError(const std::shared_ptr<Conn>& conn, std::string message) {
    stats.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    SOP_COUNTER_ADD("net/server/protocol_errors", 1);
    EnqueueFrame(conn, EncodeError(ErrorMsg{std::move(message)}),
                 /*droppable=*/false);
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
    msg.boundary = last_boundary;
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
  // builds for each applied snapshot.
  void ConfigureSession(SopSession* s) const {
    const std::string detector_name = options.detector;
    if (detector_name == "sop") {
      // Route through the session's in-process SopDetector so subscribe/
      // unsubscribe can take the overlay-swap path instead of always
      // rebuilding and replaying history.
      s->UseSopDetector(SopDetector::Options());
    } else {
      s->SetDetectorBuilder([detector_name](const Workload& workload) {
        return CreateDetector(detector_name, workload);
      });
    }
    s->SetBasisHeadroom(options.headroom);
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
      SOP_COUNTER_ADD("net/server/repl_resyncs", 1);
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
        SOP_COUNTER_ADD("net/server/repl_snapshots_sent", 1);
      } else {
        stats.repl_batches_sent.fetch_add(1, std::memory_order_relaxed);
        SOP_COUNTER_ADD("net/server/repl_batches_sent", 1);
      }
      if (ack.need_snapshot) {
        stats.repl_resyncs.fetch_add(1, std::memory_order_relaxed);
        SOP_COUNTER_ADD("net/server/repl_resyncs", 1);
        MarkNeedSnapshot();
      }
    }
  }

  // Handles one complete, CRC-verified frame payload from `conn`.
  // Returns false when the connection must be dropped.
  bool Dispatch(const std::shared_ptr<Conn>& conn,
                const std::string& payload) {
    MsgType type;
    std::string error;
    if (!PeekType(payload, &type, &error)) {
      SendError(conn, error);
      return false;
    }
    switch (type) {
      case MsgType::kHello: {
        HelloMsg hello;
        if (!DecodeHello(payload, &hello, &error)) {
          SendError(conn, error);
          return false;
        }
        if (hello.protocol_version != kProtocolVersion) {
          SendError(conn, "protocol version mismatch: server speaks v" +
                              std::to_string(kProtocolVersion));
          return false;
        }
        {
          std::lock_guard<std::mutex> lock(conn->mu);
          conn->hello_done = true;
        }
        HelloAckMsg ack;
        ack.protocol_version = kProtocolVersion;
        ack.window_type = static_cast<uint32_t>(options.window_type);
        ack.metric = static_cast<uint32_t>(options.metric);
        ack.role = role.load(std::memory_order_relaxed);
        ack.detector = options.detector;
        {
          std::lock_guard<std::mutex> session_lock(session_mu);
          ack.last_boundary = last_boundary;
          ack.next_seq = static_cast<uint64_t>(session->next_seq());
        }
        EnqueueFrame(conn, EncodeHelloAck(ack), /*droppable=*/false);
        return true;
      }
      case MsgType::kIngest: {
        IngestOp op;
        op.conn = conn;
        if (!DecodeIngest(payload, &op.msg, &error)) {
          SendError(conn, error);
          return false;
        }
        if (RoleNow() == ServerRole::kStandby) {
          // A standby's stream position is owned by replication; clients
          // must ingest at the primary.
          SendError(conn, "standby: ingest is served by the primary");
          IngestAckMsg ack;
          ack.boundary = op.msg.boundary;
          EnqueueFrame(conn, EncodeIngestAck(ack), /*droppable=*/false);
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
          SendError(conn, error);
          return false;
        }
        if (RoleNow() == ServerRole::kStandby) {
          SubscribeAckMsg ack;
          ack.error = "standby: subscriptions are served by the primary";
          EnqueueFrame(conn, EncodeSubscribeAck(ack), /*droppable=*/false);
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
          EnqueueFrame(conn, EncodeSubscribeAck(ack), /*droppable=*/false);
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
          SOP_COUNTER_ADD("net/server/subscribes", 1);
          if (ack.gap) {
            stats.resume_gaps.fetch_add(1, std::memory_order_relaxed);
            SOP_COUNTER_ADD("net/server/resume_gaps", 1);
          }
          if (!replay.empty()) {
            stats.resume_replayed.fetch_add(replay.size(),
                                            std::memory_order_relaxed);
            SOP_COUNTER_ADD("net/server/resume_replayed", replay.size());
          }
          // Replayed emissions precede the ack on the wire; both are
          // control-paced (never shed). Enqueued under session_mu so a
          // concurrent batch's live emissions cannot jump ahead of them.
          for (std::string& f : replay) {
            EnqueueFrame(conn, std::move(f), /*droppable=*/false);
          }
          EnqueueFrame(conn, EncodeSubscribeAck(ack), /*droppable=*/false);
        }
        return true;
      }
      case MsgType::kUnsubscribe: {
        UnsubscribeMsg unsub;
        if (!DecodeUnsubscribe(payload, &unsub, &error)) {
          SendError(conn, error);
          return false;
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
          SOP_COUNTER_ADD("net/server/unsubscribes", 1);
        }
        EnqueueFrame(conn, EncodeUnsubscribeAck(ack), /*droppable=*/false);
        return true;
      }
      case MsgType::kPing: {
        PingMsg ping;
        if (!DecodePing(payload, &ping, &error)) {
          SendError(conn, error);
          return false;
        }
        PongMsg pong;
        pong.token = ping.token;
        pong.role = role.load(std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> session_lock(session_mu);
          pong.last_boundary = last_boundary;
        }
        {
          std::lock_guard<std::mutex> lock(ingest_mu);
          pong.ingest_queue_depth = ingest_queue.size();
        }
        {
          std::vector<std::shared_ptr<Conn>> snapshot;
          {
            std::lock_guard<std::mutex> lock(conns_mu);
            snapshot = conns;
          }
          uint64_t depth = 0;
          for (const std::shared_ptr<Conn>& c : snapshot) {
            std::lock_guard<std::mutex> lock(c->mu);
            depth += c->sendq.size();
          }
          pong.send_queue_depth = depth;
        }
        pong.active_connections =
            stats.active_clients.load(std::memory_order_relaxed);
        EnqueueFrame(conn, EncodePong(pong), /*droppable=*/false);
        return true;
      }
      case MsgType::kReplSnapshot: {
        if (!options.standby) {
          SendError(conn, "not a standby: replication refused");
          return false;
        }
        ReplSnapshotMsg msg;
        if (!DecodeReplSnapshot(payload, &msg, &error)) {
          SendError(conn, error);
          return false;
        }
        if (RoleNow() != ServerRole::kStandby) {
          // Already promoted: a resurrected old primary must not demote
          // this server's live stream. It gets an error, not an ack.
          SendError(conn, "promoted: no longer accepting replication");
          return false;
        }
        {
          std::lock_guard<std::mutex> lock(conn->mu);
          conn->is_repl = true;
        }
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
        ReplAckMsg ack;
        {
          std::lock_guard<std::mutex> session_lock(session_mu);
          if (ok) {
            for (const QueryId id : fresh->RegisteredQueryIds()) {
              fresh->RemoveQuery(id);
            }
            session = std::move(fresh);
            last_boundary = session->last_boundary();
            RestoreRingLocked(msg.ring);
            batches_since_checkpoint = 0;
            stats.repl_snapshots_applied.fetch_add(
                1, std::memory_order_relaxed);
            SOP_COUNTER_ADD("net/server/repl_snapshots_applied", 1);
          }
          ack.boundary = last_boundary;
        }
        ack.need_snapshot = !ok;
        EnqueueFrame(conn, EncodeReplAck(ack), /*droppable=*/false);
        return true;
      }
      case MsgType::kReplBatch: {
        if (!options.standby) {
          SendError(conn, "not a standby: replication refused");
          return false;
        }
        ReplBatchMsg msg;
        if (!DecodeReplBatch(payload, &msg, &error)) {
          SendError(conn, error);
          return false;
        }
        if (RoleNow() != ServerRole::kStandby) {
          SendError(conn, "promoted: no longer accepting replication");
          return false;
        }
        {
          std::lock_guard<std::mutex> lock(conn->mu);
          conn->is_repl = true;
        }
        ReplAckMsg ack;
        std::string checkpoint_frame;
        {
          std::lock_guard<std::mutex> session_lock(session_mu);
          if (msg.boundary <= last_boundary) {
            // Stale duplicate (resent across a resync): already applied.
            ack.boundary = last_boundary;
          } else if (msg.prev_boundary != last_boundary) {
            // Chain broken — batches were lost between the primary and
            // us. Demand a snapshot rather than apply a gapped stream.
            ack.boundary = last_boundary;
            ack.need_snapshot = true;
          } else {
            const uint64_t batch_size = msg.points.size();
            // The standby has no registered queries, so Advance yields
            // nothing; the primary's own emissions arrive in msg.results
            // and keep the ring bit-identical to the primary's.
            session->Advance(std::move(msg.points), msg.boundary);
            last_boundary = msg.boundary;
            for (const EmissionRecord& rec : msg.results) {
              AppendRingLocked(rec.query, rec.boundary, rec.degraded,
                               rec.outliers);
            }
            ack.boundary = last_boundary;
            stats.ingest_batches.fetch_add(1, std::memory_order_relaxed);
            stats.ingest_points.fetch_add(batch_size,
                                          std::memory_order_relaxed);
            stats.repl_batches_applied.fetch_add(1,
                                                 std::memory_order_relaxed);
            SOP_COUNTER_ADD("net/server/repl_batches_applied", 1);
            if (!options.checkpoint_path.empty() &&
                ++batches_since_checkpoint >=
                    options.checkpoint_every_batches) {
              batches_since_checkpoint = 0;
              checkpoint_frame = BuildSnapshotFrameLocked();
            }
          }
        }
        EnqueueFrame(conn, EncodeReplAck(ack), /*droppable=*/false);
        if (!checkpoint_frame.empty()) {
          PublishCheckpoint(std::move(checkpoint_frame));
        }
        return true;
      }
      case MsgType::kShardConfig: {
        ShardConfigMsg msg;
        if (!DecodeShardConfig(payload, &msg, &error)) {
          SendError(conn, error);
          return false;
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
        if (ack.ok) {
          SOP_GAUGE_SET("net/server/shard_index", msg.shard_index);
          SOP_GAUGE_SET("net/server/num_shards", msg.num_shards);
        }
        EnqueueFrame(conn, EncodeShardConfigAck(ack), /*droppable=*/false);
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

  void ReaderLoop(const std::shared_ptr<Conn>& conn) {
    FrameDecoder decoder;
    char buf[64 << 10];
    bool timed_out = false;
    for (;;) {
      std::string error;
      const int64_t n = RecvSomeTimeout(conn->sock, buf, sizeof(buf),
                                        options.idle_timeout_ms, &error);
      if (n == kRecvTimedOut) {
        // Only a mid-frame stall is hostile (slow-loris); a connection
        // with no partial frame pending is just a quiet subscriber.
        if (decoder.buffered_bytes() > 0) {
          stats.idle_disconnects.fetch_add(1, std::memory_order_relaxed);
          SOP_COUNTER_ADD("net/server/idle_disconnects", 1);
          timed_out = true;
          break;
        }
        continue;
      }
      if (n <= 0) break;  // orderly close or hard error
      stats.bytes_in.fetch_add(static_cast<uint64_t>(n),
                               std::memory_order_relaxed);
      SOP_COUNTER_ADD("net/server/bytes_in", n);
      decoder.Append(buf, static_cast<size_t>(n));
      bool drop = false;
      for (;;) {
        std::string payload;
        const FrameDecoder::Status status = decoder.Next(&payload, &error);
        if (status == FrameDecoder::Status::kNeedMore) break;
        if (status == FrameDecoder::Status::kError) {
          // Framing lost: this connection cannot resync. Tell the client
          // why (best effort) and drop it; the process and every other
          // connection stay up.
          SendError(conn, error);
          drop = true;
          break;
        }
        stats.frames_in.fetch_add(1, std::memory_order_relaxed);
        SOP_COUNTER_ADD("net/server/frames_in", 1);
        if (!Dispatch(conn, payload)) {
          drop = true;
          break;
        }
      }
      if (drop) break;
    }
    // During a graceful Stop the reader exits on EOF (ShutdownRead) but
    // must NOT abort-close the connection: the writer is still draining
    // queued acks and emissions. Every other exit closes as usual.
    if (!stopping.load(std::memory_order_relaxed) || timed_out) {
      CloseConn(conn);
    }
  }

  void AcceptLoop() {
    for (;;) {
      std::string error;
      Socket sock = AcceptTcp(listener, &error);
      if (!sock.valid()) {
        if (stopping.load(std::memory_order_relaxed)) return;
        continue;  // transient accept failure; keep serving
      }
      if (stopping.load(std::memory_order_relaxed)) return;
      auto conn = std::make_shared<Conn>(std::move(sock));
      stats.connections.fetch_add(1, std::memory_order_relaxed);
      stats.active_clients.fetch_add(1, std::memory_order_relaxed);
      SOP_COUNTER_ADD("net/server/connections", 1);
      SOP_GAUGE_SET(
          "net/server/active_clients",
          stats.active_clients.load(std::memory_order_relaxed));
      // Register the connection before its reader can process a frame: a
      // subscribe handled before this conn is visible in `conns` would let
      // the next batch's emissions bypass the brand-new subscriber. Stop()
      // joins the accept thread before it snapshots `conns`, so a conn
      // registered here always has its threads spawned by then.
      {
        std::lock_guard<std::mutex> lock(conns_mu);
        conns.push_back(conn);
      }
      conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
      conn->writer = std::thread([this, conn] { WriterLoop(conn); });
    }
  }

  // Fans one batch's session results out to subscribers. Returns how many
  // emission frames were enqueued for `ingester` (reported in its ack).
  uint64_t RouteEmissions(const std::vector<SessionResult>& results,
                          const std::shared_ptr<Conn>& ingester) {
    uint64_t to_ingester = 0;
    std::vector<std::shared_ptr<Conn>> snapshot;
    {
      std::lock_guard<std::mutex> lock(conns_mu);
      snapshot = conns;
    }
    for (const SessionResult& r : results) {
      for (const std::shared_ptr<Conn>& conn : snapshot) {
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
        if (EnqueueFrame(conn, EncodeEmission(m), /*droppable=*/true)) {
          stats.emissions.fetch_add(1, std::memory_order_relaxed);
          SOP_COUNTER_ADD("net/server/emissions", 1);
          if (conn == ingester) ++to_ingester;
        }
      }
    }
    return to_ingester;
  }

  // Publishes one snapshot frame to options.checkpoint_path (atomic
  // rename), rotating older generations first and consulting the
  // checkpoint fault sites like the engine does. `blob` was produced
  // under session_mu by the caller.
  void PublishCheckpoint(std::string blob) {
    FaultInjector* injector = FaultInjector::Armed();
    if (injector != nullptr &&
        injector->ShouldFail(FaultSite::kCheckpointWrite)) {
      stats.checkpoint_failures.fetch_add(1, std::memory_order_relaxed);
      SOP_COUNTER_ADD("net/server/checkpoint_failures", 1);
      return;  // skipped save; the previous checkpoint stays valid
    }
    if (injector != nullptr &&
        injector->ShouldFail(FaultSite::kCheckpointBytes)) {
      injector->CorruptBytes(&blob);  // framing catches this on restore
    }
    if (options.checkpoint_generations > 1) {
      io::RotateGenerations(options.checkpoint_path,
                            options.checkpoint_generations);
    }
    std::string error;
    if (io::WriteFileAtomic(options.checkpoint_path, blob, &error)) {
      stats.checkpoints.fetch_add(1, std::memory_order_relaxed);
      SOP_COUNTER_ADD("net/server/checkpoints", 1);
    } else {
      stats.checkpoint_failures.fetch_add(1, std::memory_order_relaxed);
      SOP_COUNTER_ADD("net/server/checkpoint_failures", 1);
    }
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
      bool accepted = false;
      uint64_t next_seq = 0;
      {
        std::lock_guard<std::mutex> lock(session_mu);
        // Pre-validate what SopSession::Advance would CHECK: boundaries
        // must strictly increase. Bad wire input gets an error reply, not
        // a process abort.
        if (op.msg.boundary > last_boundary) {
          accepted = true;
          prev_boundary = last_boundary;
          last_boundary = op.msg.boundary;
          SOP_TRACE("net/server/advance_ms");
          results = session->Advance(std::move(op.msg.points),
                                     op.msg.boundary);
          stats.ingest_batches.fetch_add(1, std::memory_order_relaxed);
          stats.ingest_points.fetch_add(batch_size,
                                        std::memory_order_relaxed);
          if (halo_size > 0) {
            stats.halo_points.fetch_add(halo_size,
                                        std::memory_order_relaxed);
            SOP_COUNTER_ADD("net/server/halo_points", halo_size);
          }
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

      if (!accepted) {
        SendError(op.conn, "ingest boundary " +
                               std::to_string(op.msg.boundary) +
                               " does not advance the stream");
        IngestAckMsg ack;
        ack.boundary = op.msg.boundary;
        ack.accepted = 0;
        ack.emissions = 0;
        ack.next_seq = next_seq;
        EnqueueFrame(op.conn, EncodeIngestAck(ack), /*droppable=*/false);
        continue;
      }
      SOP_COUNTER_ADD("net/server/ingest_batches", 1);

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
      EnqueueFrame(op.conn, EncodeIngestAck(ack), /*droppable=*/false);

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
      im.options.max_ingest_queue == 0 || im.options.num_threads <= 0 ||
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
  im.last_boundary = kNoResume;

  // Resume from the previous incarnation's checkpoint when one exists,
  // walking the generations newest-first past corrupt or missing files.
  // Restored queries belonged to connections that no longer exist, so they
  // are retired; the restored history, stream position and resume ring
  // remain, and a reconnecting subscriber resumes from them.
  if (!im.options.checkpoint_path.empty()) {
    FaultInjector* injector = FaultInjector::Armed();
    bool loaded = false;
    for (int g = 0; !loaded && g < im.options.checkpoint_generations; ++g) {
      const std::string path =
          io::GenerationPath(im.options.checkpoint_path, g);
      std::string blob;
      std::string read_error;
      if (injector != nullptr &&
          injector->ShouldFail(FaultSite::kCheckpointRead)) {
        continue;
      }
      if (!io::ReadFileToString(path, &blob, &read_error)) continue;
      // One kReplSnapshot frame: session state plus resume ring.
      std::string_view payload;
      std::string decode_error;
      MsgType type;
      ReplSnapshotMsg snap;
      if (UnwrapFrame(blob, &payload, &decode_error) &&
          PeekType(payload, &type, &decode_error) &&
          type == MsgType::kReplSnapshot &&
          DecodeReplSnapshot(payload, &snap, &decode_error)) {
        if (im.session->LoadState(snap.state, &decode_error)) {
          im.RestoreRingLocked(snap.ring);
          loaded = true;
        }
      }
      if (loaded && g > 0) {
        SOP_COUNTER_ADD("net/server/checkpoint_fallbacks", 1);
      }
    }
    if (loaded) {
      for (const QueryId id : im.session->RegisteredQueryIds()) {
        im.session->RemoveQuery(id);
      }
      // Boundary monotonicity resumes where the stream left off — a
      // stale ingest must be refused, not CHECK the session.
      im.last_boundary = im.session->last_boundary();
      im.stats.resumed.store(true, std::memory_order_relaxed);
      SOP_COUNTER_ADD("net/server/resumes", 1);
    }
    // No restorable generation is not fatal: serve fresh.
  }

  int bound_port = 0;
  im.listener = ListenTcp(im.options.host, im.options.port, /*backlog=*/64,
                          &bound_port, error);
  if (!im.listener.valid()) return false;
  port_ = bound_port;

  im.pool = std::make_unique<ThreadPool>(im.options.num_threads);
  im.detect_done = im.pool->Submit([&im] { im.DetectLoop(); });
  im.accept_thread = std::thread([&im] { im.AcceptLoop(); });
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
  im.stopping.store(true, std::memory_order_relaxed);

  // Stop accepting new connections.
  im.listener.ShutdownBoth();
  if (im.accept_thread.joinable()) im.accept_thread.join();
  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(im.conns_mu);
    conns = im.conns;
  }

  // Graceful drain, in dependency order. 1) Shut the read side of every
  // connection: readers wake with an orderly EOF and exit without closing
  // the socket, so queued outbound frames survive.
  for (const std::shared_ptr<Conn>& conn : conns) conn->sock.ShutdownRead();
  {
    std::lock_guard<std::mutex> lock(im.ingest_mu);
    im.ingest_cv_push.notify_all();
    im.ingest_cv_pop.notify_all();  // readers blocked on a full queue exit
  }
  for (const std::shared_ptr<Conn>& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
  }

  // 2) No producers left: the detection loop drains the ingest queue and
  // exits, enqueueing the final acks/emissions.
  {
    std::lock_guard<std::mutex> lock(im.ingest_mu);
    im.ingest_cv_push.notify_all();
  }
  if (im.detect_done.valid()) im.detect_done.get();

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

  // 4) Let writers drain their send queues, then exit via `closing`. A
  // peer that refuses to read its socket cannot hold shutdown hostage:
  // past the deadline its connection is aborted.
  for (const std::shared_ptr<Conn>& conn : conns) {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closing = true;
    conn->cv_push.notify_all();
    conn->cv_pop.notify_all();
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  for (const std::shared_ptr<Conn>& conn : conns) {
    {
      std::unique_lock<std::mutex> lock(conn->mu);
      conn->cv_done.wait_until(lock, deadline, [&] {
        return conn->writer_done.load(std::memory_order_acquire);
      });
    }
    if (!conn->writer_done.load(std::memory_order_acquire)) {
      conn->sock.ShutdownBoth();
    }
    if (conn->writer.joinable()) conn->writer.join();
  }
  {
    std::lock_guard<std::mutex> lock(im.conns_mu);
    im.conns.clear();
  }
  im.pool.reset();
  im.listener.Close();

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
  im.stopping.store(true, std::memory_order_relaxed);

  // Abort everything: sockets die mid-frame, queued work is dropped, no
  // final checkpoint — exactly what a crashed process leaves behind.
  im.listener.ShutdownBoth();
  if (im.accept_thread.joinable()) im.accept_thread.join();
  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(im.conns_mu);
    conns = im.conns;
  }
  for (const std::shared_ptr<Conn>& conn : conns) im.CloseConn(conn);
  {
    std::lock_guard<std::mutex> lock(im.ingest_mu);
    im.ingest_cv_push.notify_all();
    im.ingest_cv_pop.notify_all();
  }
  if (im.detect_done.valid()) im.detect_done.get();
  if (im.repl_thread.joinable()) {
    {
      std::lock_guard<std::mutex> lock(im.repl_mu);
      im.repl_cv.notify_all();
    }
    im.repl_thread.join();
  }
  for (const std::shared_ptr<Conn>& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->writer.joinable()) conn->writer.join();
  }
  {
    std::lock_guard<std::mutex> lock(im.conns_mu);
    im.conns.clear();
  }
  im.pool.reset();
  im.listener.Close();
}

ServerRole SopServer::role() const { return impl_->RoleNow(); }

ServerStats SopServer::stats() const {
  const Impl::AtomicStats& a = impl_->stats;
  ServerStats s;
  s.connections = a.connections.load(std::memory_order_relaxed);
  s.active_clients = a.active_clients.load(std::memory_order_relaxed);
  s.frames_in = a.frames_in.load(std::memory_order_relaxed);
  s.frames_out = a.frames_out.load(std::memory_order_relaxed);
  s.bytes_in = a.bytes_in.load(std::memory_order_relaxed);
  s.bytes_out = a.bytes_out.load(std::memory_order_relaxed);
  s.ingest_batches = a.ingest_batches.load(std::memory_order_relaxed);
  s.ingest_points = a.ingest_points.load(std::memory_order_relaxed);
  s.halo_points = a.halo_points.load(std::memory_order_relaxed);
  s.emissions = a.emissions.load(std::memory_order_relaxed);
  s.shed_emissions = a.shed_emissions.load(std::memory_order_relaxed);
  s.subscribes = a.subscribes.load(std::memory_order_relaxed);
  s.unsubscribes = a.unsubscribes.load(std::memory_order_relaxed);
  s.protocol_errors = a.protocol_errors.load(std::memory_order_relaxed);
  s.checkpoints = a.checkpoints.load(std::memory_order_relaxed);
  s.checkpoint_failures =
      a.checkpoint_failures.load(std::memory_order_relaxed);
  s.idle_disconnects = a.idle_disconnects.load(std::memory_order_relaxed);
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
      s.basis_extends = c.basis_extends;
      s.rebuild_changes = c.rebuilds;
      s.replayed_points = c.replayed_points;
      s.last_boundary = impl_->last_boundary;
    }
  }
  return s;
}

}  // namespace net
}  // namespace sop
