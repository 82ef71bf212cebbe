// SopRouter: the horizontal scale-out plane (DESIGN.md Sec. 17).
//
// One router fronts N sop_server WORKERS, each owning one shard of the
// value domain (cluster/partition.h). To its own clients the router
// speaks the ordinary wire protocol — sop_client, sop_datagen and the
// loopback tests work against it unchanged — and behind that facade it
// runs three cooperating roles:
//
//   Partitioner  every ingested point is assigned one owner shard by its
//                first attribute, plus a replica on every shard whose
//                region lies within the halo width (the workload basis
//                r_max), so each worker sees the complete neighborhood of
//                every point it owns.
//   Router       every operation fork-joins across one thread per worker,
//                each driving one SopClient with reconnect/HA recovery
//                armed — a killed-and-restarted worker (checkpointing
//                enabled) is ridden out with exactly-once resume, not a
//                lost shard.
//   Merger       per-worker emissions come back, halo verdicts (outliers
//                the emitting shard does not own) are dropped, owned
//                verdicts are translated from worker-local to global
//                sequence numbers and unioned, and one canonical
//                (boundary, query)-ordered emission stream goes out to
//                subscribers — bit-identical to a single-node run.
//
// Why the merge is exact: workers always run TIME windows. For a
// time-window deployment points pass through unchanged; for a COUNT
// deployment the router overwrites each point's time with its global
// arrival index, which makes a worker's window over [b - win, b) exactly
// the shard restriction of the global count window (stream/window.h keys
// both window types the same way). Each worker therefore evaluates every
// query over precisely the global window's points that fall in its region
// + halo; the halo guarantees complete neighbor sets for owned points
// (partition.h), so owned verdicts equal single-node verdicts, and each
// point is owned exactly once — the union is the global answer.
//
// Ordering: one route loop serializes every stream operation (batches,
// subscribes, unsubscribes, detach cleanup) and hands each to every worker
// in the same order, so all workers agree on which queries are live at
// every boundary. The loop fork-joins each operation across all workers
// before it takes the next one, and a batch's merged emissions are
// enqueued to each subscriber ahead of the ingester's ack — the same
// emissions-before-ack contract the single server gives.
//
// Threading: the client side is the single server's connection front
// (net/frontend.h): an accept thread, one reader and one writer thread per
// connection, released once the connection closes, and the same rules.
// Control replies bypass the send bound; emissions respect it with
// lossless backpressure into the route loop. A framing error or a
// writer's send failure closes the connection, and its subscriptions are
// retired at once. Behind the front run the route loop and one thread per
// worker.
//
// Halo sizing: `halo` < 0 (auto) makes the width the largest subscribed
// radius (the workload basis r_max), growing as queries arrive — until
// the first batch is routed, which freezes it (replicas already shipped
// cannot be widened retroactively). A later subscribe with r > halo is
// refused with a diagnostic instead of silently degrading; a deployment
// that expects wider radii later sets `halo` explicitly.
//
// Refusals: the router checks each client batch with its own StreamTail
// (the single server's rules, in the deployment's window type) before it
// routes any of it. A worker may still refuse its share (its stream is
// ahead of the router's, say): the client then gets that worker's
// diagnostic as an error and an ack with accepted 0, while the other
// shards have applied theirs.
//
// Degradation: if a worker stays unreachable past its client's bounded
// recovery, or refuses its share, the router keeps serving. Every window
// that reaches back to that batch misses the shard's points, so each
// merged emission below the batch's boundary plus the largest subscribed
// window carries degraded=true. Lossy, and says so, rather than stalling
// the stream forever. A failed batch also leaves that shard's
// local->global sequence map in an unknown state (nothing says whether
// the worker numbered the batch's points), so the map is held desynced —
// its verdicts stay out of the merge, flagged degraded — until the
// worker's next ack: every ack carries the worker session's arrival
// counter (IngestAckMsg::next_seq), against which the router realigns the
// map exactly, excising the entries of batches the worker provably never
// applied. RouterStats::degraded mirrors this: set while any shard is
// failed or desynced or a hole's windows are still open, cleared once a
// batch past them completes with every worker realigned.
//
// Scope: the router keeps no resume ring and no checkpoint of its own;
// SubscribeMsg::resume_from is ignored (exactly-once across a ROUTER
// restart is out of scope — workers' rings + checkpoints cover worker
// restarts). Run workers with checkpointing (checkpoint_every_batches=1)
// so a restarted worker resumes with its sequence counter intact; the
// router's local->global sequence maps assume it.

#ifndef SOP_CLUSTER_ROUTER_H_
#define SOP_CLUSTER_ROUTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sop/cluster/partition.h"
#include "sop/common/distance.h"
#include "sop/net/client.h"
#include "sop/net/protocol.h"
#include "sop/stream/window.h"

namespace sop {
namespace cluster {

/// Router configuration. `workers` and `partition` must agree:
/// partition.parts() == workers.size() >= 1.
struct RouterOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 binds an ephemeral port (read back via port())

  /// The deployment's session configuration, advertised to clients in the
  /// hello ack. Workers must serve TIME windows (see file comment) with
  /// the same metric and detector; Start() verifies each worker's
  /// handshake and fails fast on a mismatch.
  WindowType window_type = WindowType::kCount;
  Metric metric = Metric::kEuclidean;
  std::string detector = "sop";

  /// One downstream sop_server per shard, in shard order.
  std::vector<net::Endpoint> workers;
  /// Interior cut points over the first attribute; parts() must equal
  /// workers.size(). PartitionSpec::Uniform is the common constructor.
  PartitionSpec partition;

  /// Halo width; < 0 makes it the largest subscribed radius as queries
  /// arrive (frozen at the first routed batch).
  double halo = -1.0;

  /// Bounded client -> route-loop queue (stream ops). A full queue blocks
  /// readers, backpressuring the ingesting client's TCP stream.
  size_t max_ingest_queue = 16;
  /// Bounded per-subscriber send queue (frames); an emission to a full
  /// queue blocks the route loop — lossless backpressure, the server's
  /// kBlock policy. Control replies bypass the bound.
  size_t max_send_queue = 256;

  /// Worker-client recovery template (endpoints are filled per worker).
  net::ReconnectOptions worker_reconnect;
};

/// Monotonic counters since Start(), always on (independent of obs): the
/// one source of the router's counts. The global obs registry holds only
/// what no field does: the cluster/route/batch_ms and cluster/merge/merge_ms
/// timings, the route queue's peak depth and per-worker points.
struct RouterStats {
  uint64_t connections = 0;        // accepted client sockets, lifetime
  uint64_t active_clients = 0;     // currently connected
  uint64_t ingest_batches = 0;     // client batches routed
  uint64_t ingest_points = 0;      // distinct points ingested
  uint64_t routed_points = 0;      // point copies shipped to workers
  uint64_t halo_points = 0;        // of those, halo replicas
  uint64_t merged_boundaries = 0;  // fork-joined batch merges completed
  uint64_t merged_emissions = 0;   // emission frames enqueued to clients
  uint64_t dropped_halo_outliers = 0;  // halo verdicts discarded in merge
  uint64_t subscribes = 0;
  uint64_t refused_subscribes = 0;     // bad query, or r > frozen halo
  uint64_t unsubscribes = 0;
  uint64_t protocol_errors = 0;
  uint64_t worker_reconnects = 0;  // recoveries completed across workers
  uint64_t worker_failures = 0;    // batches a worker failed or refused
  /// Bytes the worker clients sent and received since Start, the
  /// handshakes included: the sums of their SopClient counts.
  uint64_t worker_bytes_out = 0;
  uint64_t worker_bytes_in = 0;
  /// True while a shard's verdicts are missing, its sequence map is
  /// desynced, or a window still reaches back to a failed or refused
  /// share; false again once a batch past those windows completes with
  /// every worker healthy and realigned (current health, not a sticky
  /// latch).
  bool degraded = false;
  int64_t last_boundary = net::kNoResume;
  double halo = 0.0;               // current width (may grow until frozen)
  uint32_t workers = 0;
};

/// The scale-out front end. Start() connects every worker, then serves
/// until Stop(). Thread-safe: Start/Stop from one controlling thread,
/// stats()/port() from anywhere.
class SopRouter {
 public:
  explicit SopRouter(RouterOptions options);
  ~SopRouter();

  SopRouter(const SopRouter&) = delete;
  SopRouter& operator=(const SopRouter&) = delete;

  /// Validates the partition against the worker list, connects and
  /// verifies every worker (time windows, matching metric/detector,
  /// primary role), binds the front listener and spawns the serving
  /// threads. False with `*error` set on any mismatch.
  bool Start(std::string* error);

  /// Graceful shutdown; idempotent. Stops accepting, drains the route
  /// loop, joins the worker threads and closes every connection.
  void Stop();

  /// The bound front port (valid after Start()).
  int port() const { return port_; }

  RouterStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  int port_ = 0;
};

}  // namespace cluster
}  // namespace sop

#endif  // SOP_CLUSTER_ROUTER_H_
