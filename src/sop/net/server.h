// SopServer: the networked serving plane over a dynamic detection session.
//
// One server hosts one SopSession (core/session.h) compiled through the
// string detector factory (detector/factory.h), and speaks the framed wire
// protocol (net/protocol.h) over plain TCP. Message planes:
//
//   ingest         clients push point batches ending at strictly
//                  increasing window boundaries; the session advances and
//                  the ingesting client receives an ack (its RTT is the
//                  end-to-end ingest latency),
//   subscriptions  clients register/retire outlier queries live through
//                  the session: with the default "sop" detector, a
//                  change its live basis covers (a subscribe at an
//                  already-served radius, any unsubscribe) is an in-place
//                  overlay swap — no rebuild, no history replay — while
//                  anything else, or another detector name, rebuilds and
//                  replays so a fresh subscriber still starts with a
//                  populated window,
//   emissions      every due query's outliers are pushed to exactly the
//                  clients subscribed to that query,
//   health         kPing from any client answers with the server's role,
//                  stream position and queue depths,
//   replication    a primary ships its session to a hot standby (below).
//
// This is the paper's sharing story as a service: however many clients
// subscribe, each ingested batch runs ONE shared detector pass; emission
// routing is just id-filtered fan-out of that single answer set.
//
// High availability (DESIGN.md Sec. 16): with `replicate_host` set, a
// primary streams its state to a standby over the same wire protocol — a
// full kReplSnapshot (session blob + resume ring) whenever the chain is
// (re)established, then one kReplBatch per advanced batch, each chained to
// its predecessor's boundary. The standby (options.standby) applies them
// into a live session, refuses ingest/subscribe while standing by, and —
// with promote_on_loss — promotes itself to primary the moment the
// replication connection dies, serving from the last replicated boundary.
// Replication is self-healing: a broken chain or a refused batch or
// snapshot NAKs (ReplAck.need_snapshot) and the primary ships a fresh one.
//
// Exactly-once resume: the server retains the last `resume_ring` emissions
// per query fingerprint (r, k, win, slide). A reconnecting subscriber
// passes its high-water boundary in SubscribeMsg::resume_from; the server
// replays every retained later emission ahead of the subscribe ack and
// suppresses live duplicates, so across a disconnect — or a failover, the
// ring is replicated and checkpointed — each emission is delivered exactly
// once. When the ring no longer reaches back far enough, the ack carries
// `gap` and the next live emission is flagged degraded instead of lying.
//
// Threading: the connection front (net/frontend.h) runs the accept
// thread and one reader and one writer thread per connection; once both
// have returned, the next accept joins them and drops the connection.
// Beside it run an optional replication thread and one detection thread
// that serializes every session operation — boundaries are global, so
// batches are detected one after another (a batch itself may run on
// RunLanes, common/thread_pool.h) and everything else is I/O. Readers
// hand ingest batches to the detection loop through a bounded queue
// (backpressure propagates to the client's TCP stream); emission
// delivery goes through the front's bounded per-client send queues
// governed by their OverloadPolicy (net/frontend.h): kBlock
// applies backpressure to the detection loop, kDropOldest sheds the
// oldest queued emission and flags the subscriber's next emission
// `degraded` so the gap is visible. Control replies (acks, errors)
// bypass the bound and are never shed.
//
// Resilience: malformed frames poison only their own connection (counted,
// never the process); a reader that stalls mid-frame past
// `idle_timeout_ms` is disconnected (slow-loris defense) while
// quiet-but-healthy subscribers are left alone. With a checkpoint path
// configured the server periodically saves a full snapshot — session state
// plus resume ring, as one kReplSnapshot frame — keeping the last
// `checkpoint_generations` files; a restarted server restores the newest
// generation that loads cleanly (then falls back to older ones), so one
// corrupt or refused file costs one checkpoint interval, not the run.
//
// Observability: ServerStats is the one source of the server's counts, and
// it is always on (obs may be compiled out): every server in a process
// keeps its own. The global obs registry holds only what no stats field
// does: the net/server/advance_ms histogram and the ingest_queue_depth
// peak gauge (DESIGN.md Sec. 13).

#ifndef SOP_NET_SERVER_H_
#define SOP_NET_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "sop/common/distance.h"
#include "sop/net/frontend.h"
#include "sop/net/protocol.h"
#include "sop/stream/window.h"

namespace sop {
namespace net {

/// Server configuration. Defaults serve SOP over count-based windows on an
/// ephemeral loopback port.
struct ServerOptions {
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  int port = 0;

  /// Session configuration every client shares.
  WindowType window_type = WindowType::kCount;
  Metric metric = Metric::kEuclidean;
  /// Detector factory name (KnownDetectorNames()). For "sop" the session
  /// compiles its own SopDetector on the elastic basis, so a subscribe at
  /// an already-served radius is an overlay swap; any other name compiles
  /// the live query set through CreateDetector(detector, workload) and
  /// rebuilds and replays on every change.
  std::string detector = "sop";
  /// History retention for replay on workload changes, in window-key units
  /// (see SopSession). Bound it by the largest window you intend to serve.
  int64_t history_window = 4096;

  /// Per-client send queue capacity (frames) and full-queue policy.
  /// kDropOldest sheds only emissions, never control replies.
  size_t max_send_queue = 256;
  OverloadPolicy send_policy = OverloadPolicy::kBlock;

  /// Bounded reader -> detection-loop ingest queue (batches). A full queue
  /// blocks the reader, which backpressures the ingesting client's TCP
  /// stream.
  size_t max_ingest_queue = 64;

  /// Periodic session checkpointing; empty path disables. A full snapshot
  /// (session + resume ring, one CRC-framed kReplSnapshot) is written
  /// atomically every `checkpoint_every_batches` advanced batches and
  /// restored (newest valid generation wins) by Start().
  std::string checkpoint_path;
  int64_t checkpoint_every_batches = 64;
  /// Checkpoint generations kept on disk: `path` is newest, `path.1` the
  /// one before, ... up to `path.<generations-1>`. Restore walks newest to
  /// oldest past corrupt/missing files. 1 keeps the single-file behavior.
  int checkpoint_generations = 1;

  /// --- high availability -------------------------------------------------

  /// Serve as a hot standby: apply replication from a primary, refuse
  /// ingest and subscriptions until promoted.
  bool standby = false;
  /// Standby only: promote to primary when the replication connection
  /// drops (primary crash, network cut). Without it the standby keeps
  /// waiting for the primary to come back.
  bool promote_on_loss = false;
  /// Primary only: ship every advanced batch (and snapshots as needed) to
  /// the standby at host:port. Empty host disables replication.
  std::string replicate_host;
  int replicate_port = 0;
  /// How long the replication thread waits for the standby's ReplAck
  /// before declaring the link dead and reconnecting (with a fresh
  /// snapshot).
  int repl_ack_timeout_ms = 2000;
  /// Bounded primary-side replication queue (encoded batches). Overflow —
  /// a standby slower than the stream — drops the queue and resyncs with
  /// one snapshot instead of stalling ingest.
  size_t max_repl_queue = 256;

  /// Retained emissions per query fingerprint (r, k, win, slide) for
  /// reconnect resume. Bounds resume memory; a reconnect further back than
  /// the ring reaches is answered with `gap` instead of silence.
  size_t resume_ring = 1024;

  /// Disconnect a connection that stalls mid-frame for this long (ms); -1
  /// disables. Connections with no partial frame pending are never timed
  /// out — subscribers legitimately go quiet for hours.
  int idle_timeout_ms = -1;
};

/// Monotonic counters since Start(), readable at any time: the one source
/// of this server's counts (independent of the obs layer, which may be
/// compiled out).
struct ServerStats {
  uint64_t connections = 0;        // accepted sockets, lifetime
  uint64_t active_clients = 0;     // currently connected
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t ingest_batches = 0;     // batches advanced through the session
  uint64_t ingest_points = 0;
  uint64_t halo_points = 0;        // of those, halo replicas (owner flag 0)
  uint64_t rejected_points = 0;    // in batches refused by StreamTail::Check
  uint64_t emissions = 0;          // emission frames enqueued to clients
  uint64_t shed_emissions = 0;     // emission frames dropped under overload
  uint64_t subscribes = 0;
  uint64_t unsubscribes = 0;
  // How the session realized workload changes (SessionChangeStats): overlay
  // swaps vs rebuild-and-replay, and the total replay cost paid so far.
  uint64_t overlay_changes = 0;
  uint64_t rebuild_changes = 0;
  uint64_t replayed_points = 0;
  uint64_t protocol_errors = 0;    // malformed frames / messages / plans
  uint64_t checkpoints = 0;        // checkpoint files published
  uint64_t checkpoint_failures = 0;
  uint64_t checkpoint_fallbacks = 0;  // restored an older generation
  uint64_t idle_disconnects = 0;   // mid-frame stalls timed out
  // --- high availability --------------------------------------------------
  uint64_t promotions = 0;               // standby -> primary transitions
  uint64_t repl_snapshots_sent = 0;      // primary: acked snapshots shipped
  uint64_t repl_batches_sent = 0;        // primary: acked batches shipped
  uint64_t repl_snapshots_applied = 0;   // standby: snapshots restored
  uint64_t repl_batches_applied = 0;     // standby: batches advanced
  uint64_t repl_resyncs = 0;             // chain breaks healed by snapshot
  uint64_t resume_replayed = 0;          // emissions replayed on reconnect
  uint64_t resume_gaps = 0;              // resumes past the ring's reach
  bool resumed = false;            // Start() restored a session checkpoint
  ServerRole role = ServerRole::kPrimary;  // current role (promotion moves it)
  int64_t last_boundary = kNoResume;       // the session's stream position
};

/// The serving endpoint. Start() binds and serves until Stop() (or
/// destruction). Thread-safe: Start/Stop/Kill from one controlling thread;
/// stats()/role() from anywhere.
class SopServer {
 public:
  explicit SopServer(ServerOptions options);
  ~SopServer();

  SopServer(const SopServer&) = delete;
  SopServer& operator=(const SopServer&) = delete;

  /// Binds, restores a session checkpoint when configured and present,
  /// and spawns the serving threads. Returns false with `*error` set on
  /// bad configuration or bind failure.
  bool Start(std::string* error);

  /// Graceful shutdown; idempotent. Stops accepting, lets readers finish,
  /// drains the detection loop and every send queue (bounded — a peer that
  /// refuses to read is cut off after a few seconds), flushes replication,
  /// and writes a final checkpoint so a restart resumes from the exact
  /// stop point.
  void Stop();

  /// Crash simulation: tear every socket and thread down immediately,
  /// dropping queued work, replication and the final checkpoint on the
  /// floor. What a kill -9 looks like to clients and the standby, without
  /// killing the test process. Idempotent; mutually exclusive with Stop().
  void Kill();

  /// The bound TCP port (valid after Start()).
  int port() const { return port_; }

  /// Current role; a standby flips to kPrimary when promoted.
  ServerRole role() const;

  ServerStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  int port_ = 0;
};

}  // namespace net
}  // namespace sop

#endif  // SOP_NET_SERVER_H_
