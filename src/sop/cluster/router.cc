#include "sop/cluster/router.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "sop/net/frontend.h"
#include "sop/obs/metrics.h"
#include "sop/obs/trace.h"
#include "sop/query/workload.h"
#include "sop/stream/stream_tail.h"

namespace sop {
namespace cluster {

namespace {

// One stream operation. Everything that changes what workers compute —
// batches, subscriptions, retirements — funnels through the single route
// loop so every worker observes the identical operation order (the
// workers-agree-on-live-queries invariant the merge depends on).
struct Op {
  enum class Kind { kBatch, kSubscribe, kUnsubscribe, kDetach };
  Kind kind = Kind::kBatch;
  net::FrontConnPtr conn;      // reply target (null for kDetach)
  net::IngestMsg ingest;       // kBatch
  OutlierQuery query;          // kSubscribe
  int64_t query_id = 0;        // kUnsubscribe / kDetach
};

// The client front runs the server's rules (net/frontend.h) with
// lossless backpressure and no idle timeout.
net::Frontend::Options FrontOptionsOf(const RouterOptions& o) {
  net::Frontend::Options f;
  f.host = o.host;
  f.port = o.port;
  f.max_send_queue = o.max_send_queue;
  f.send_policy = OverloadPolicy::kBlock;
  f.idle_timeout_ms = -1;
  return f;
}

}  // namespace

struct SopRouter::Impl : net::FrontHandler {
  explicit Impl(RouterOptions opts)
      : options(std::move(opts)), front(FrontOptionsOf(options), this) {}

  RouterOptions options;

  // --- always-on stats (obs may be compiled out) -------------------------
  // (Connection counts are the front's.)
  struct AtomicStats {
    std::atomic<uint64_t> ingest_batches{0};
    std::atomic<uint64_t> ingest_points{0};
    std::atomic<uint64_t> routed_points{0};
    std::atomic<uint64_t> halo_points{0};
    std::atomic<uint64_t> merged_boundaries{0};
    std::atomic<uint64_t> merged_emissions{0};
    std::atomic<uint64_t> dropped_halo_outliers{0};
    std::atomic<uint64_t> subscribes{0};
    std::atomic<uint64_t> refused_subscribes{0};
    std::atomic<uint64_t> unsubscribes{0};
    std::atomic<uint64_t> protocol_errors{0};
    std::atomic<uint64_t> worker_reconnects{0};
    std::atomic<uint64_t> worker_failures{0};
    std::atomic<uint64_t> worker_bytes_out{0};
    std::atomic<uint64_t> worker_bytes_in{0};
    std::atomic<bool> degraded{false};
  };
  AtomicStats stats;
  std::atomic<int64_t> last_boundary{net::kNoResume};
  // Current halo width. Grows with auto-sizing subscribes until the first
  // routed batch freezes it (route-loop-owned flag below).
  std::atomic<double> halo{0.0};

  // --- serving state -----------------------------------------------------
  std::thread route_thread;
  std::atomic<bool> stopping{false};

  // Bounded reader -> route-loop handoff. A full queue blocks readers, so
  // ingest backpressure propagates to the client's TCP stream.
  std::mutex ops_mu;
  std::condition_variable ops_cv_push;  // route loop waits
  std::condition_variable ops_cv_pop;   // readers wait for room
  std::deque<Op> ops;                   // guarded by ops_mu
  bool draining = false;                // guarded by ops_mu

  // Subscriber registry: global query id -> query + owning connection.
  struct SubState {
    OutlierQuery query;
    net::FrontConnPtr conn;
  };
  std::mutex subs_mu;
  std::map<int64_t, SubState> subs;  // guarded by subs_mu

  // --- route-loop-only state (single thread, no locks) -------------------
  int64_t next_query_id = 1;
  bool halo_frozen = false;
  int64_t max_win = 0;  // largest window ever subscribed
  // Every merged emission below this boundary is degraded: a failed or
  // refused share left a hole in the windows that reach back to it.
  int64_t degraded_until = INT64_MIN;
  // The client stream's position and rules (the single server's), in the
  // deployment's window type; it numbers the points with global seqs.
  StreamTail tail{options.window_type};
  std::unique_ptr<Partitioner> partitioner;  // built at halo freeze
  // Per-worker local->global sequence map: entry i describes the point
  // the worker's session numbered (base + i). `key` is the window key
  // (global seq for count deployments, time for time ones) that drives
  // horizon pruning.
  struct MapEntry {
    Seq global = 0;
    int64_t key = 0;
    bool owned = false;
  };
  struct SeqMap {
    std::deque<MapEntry> entries;
    int64_t base = 0;  // local seq of entries.front()
    // Batches this worker may or may not have applied — its client gave up
    // without an ack, so nothing says whether the worker numbered their
    // points. Each gap records the map range the batch's entries occupy
    // (in the map's own hypothetical local coordinates). While any gap is
    // open the map is desynced: translations through it cannot be trusted.
    // The next acked batch carries the worker's authoritative arrival
    // counter (IngestAckMsg::next_seq), which resolves every open gap —
    // see RealignSeqMap.
    struct Gap {
      int64_t start = 0;  // hypothetical local seq of the gap's first entry
      int64_t count = 0;
    };
    std::vector<Gap> gaps;
    bool desynced() const { return !gaps.empty(); }
  };
  std::vector<SeqMap> seq_maps;

  // One worker's outcome for its share of one batch.
  struct WorkerBatchResult {
    bool ok = false;           // transport-level success (an ack arrived)
    uint64_t accepted = 0;     // points the worker applied (ack.accepted)
    uint64_t next_seq = 0;     // worker arrival counter after the batch
    std::vector<std::string> errors;  // the worker's diagnostics
    // With GLOBAL query ids but LOCAL seqs.
    std::vector<net::EmissionMsg> emissions;
  };

  // --- workers -----------------------------------------------------------
  struct Worker {
    int index = 0;
    net::Endpoint endpoint;
    net::SopClient client;  // worker-thread-owned after Start()
    std::thread thread;
    // Query id translation, worker-thread only: the ids this worker's
    // client handed out vs the router's global ids.
    std::map<int64_t, int64_t> global_to_client;
    std::map<int64_t, int64_t> client_to_global;
    // Cached obs handle (null when obs is disabled at Start).
    obs::Counter* points_counter = nullptr;
    // The client's counts when CountTraffic last added them (worker thread
    // only).
    uint64_t reconnects_seen = 0;
    uint64_t bytes_out_seen = 0;
    uint64_t bytes_in_seen = 0;
  };
  std::vector<std::unique_ptr<Worker>> workers;

  // --- the fork-join (route loop -> worker threads) ----------------------
  // One round per operation: RunOnWorkers publishes the operation's share,
  // each worker thread runs it on its own worker, and the route loop waits
  // for all of them.
  std::mutex round_mu;
  std::condition_variable round_cv;   // worker threads wait for a round
  std::condition_variable joined_cv;  // the route loop waits for the join
  const std::function<void(Worker&)>* round_fn = nullptr;  // guarded
  uint64_t round = 0;         // guarded by round_mu
  size_t round_done = 0;      // guarded by round_mu
  bool workers_stop = false;  // guarded by round_mu

  // Declared last: it calls back into everything above until it stops.
  net::Frontend front;

  // --- front-side protocol ----------------------------------------------

  void SendError(const net::FrontConnPtr& conn, const std::string& message) {
    front.Send(conn, Encode(net::ErrorMsg{message}), /*droppable=*/false);
  }

  // Counts one protocol error and tells the client why. Returns false, so
  // a dispatch path that must drop the connection can `return` it.
  bool Refuse(const net::FrontConnPtr& conn, const std::string& message) {
    stats.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    SendError(conn, message);
    return false;
  }

  void OnFramingError(const net::FrontConnPtr& conn,
                      const std::string& error) override {
    Refuse(conn, "framing lost: " + error);
  }

  // The front began tearing down: release readers waiting for room in the
  // op queue (EnqueueOp refuses once `stopping` is set).
  void OnTeardown() override {
    std::lock_guard<std::mutex> lock(ops_mu);
    ops_cv_pop.notify_all();
  }

  // Retires a closed client's queries from the workers, through the route
  // loop so retirement is ordered against in-flight batches. During
  // shutdown the workers are being torn down anyway (EnqueueOp refuses).
  void OnClose(const net::FrontConnPtr& /*conn*/,
               std::map<int64_t, int64_t> subs) override {
    for (const auto& entry : subs) {
      Op op;
      op.kind = Op::Kind::kDetach;
      op.query_id = entry.first;
      EnqueueOp(std::move(op));
    }
  }

  // Blocks while the op queue is full. False when the router is shutting
  // down (the op was not enqueued).
  bool EnqueueOp(Op op) {
    std::unique_lock<std::mutex> lock(ops_mu);
    ops_cv_pop.wait(lock, [&] {
      return stopping.load(std::memory_order_relaxed) || draining ||
             ops.size() < options.max_ingest_queue;
    });
    if (stopping.load(std::memory_order_relaxed) || draining) return false;
    ops.push_back(std::move(op));
    SOP_GAUGE_SET_MAX("cluster/route/queue_depth", ops.size());
    ops_cv_push.notify_one();
    return true;
  }

  // Handles one decoded frame. False ends the connection.
  bool OnFrame(const net::FrontConnPtr& conn,
               const std::string& payload) override {
    net::MsgType type;
    std::string error;
    if (!net::PeekType(payload, &type, &error)) return Refuse(conn, error);
    switch (type) {
      case net::MsgType::kHello: {
        net::HelloMsg hello;
        if (!net::Decode(payload, &hello, &error)) {
          return Refuse(conn, error);
        }
        if (hello.protocol_version != net::kProtocolVersion) {
          // Same refusal as the server: an old peer would otherwise send
          // frames whose decode failures make for baffling diagnostics.
          return Refuse(conn, "protocol version mismatch: router speaks v" +
                                  std::to_string(net::kProtocolVersion));
        }
        net::HelloAckMsg ack;
        ack.protocol_version = net::kProtocolVersion;
        ack.window_type = static_cast<uint32_t>(options.window_type);
        ack.metric = static_cast<uint32_t>(options.metric);
        ack.role = static_cast<uint32_t>(net::ServerRole::kPrimary);
        ack.detector = options.detector;
        ack.last_boundary = last_boundary.load(std::memory_order_relaxed);
        // The router's arrival counter: one global seq per ingested point.
        ack.next_seq = stats.ingest_points.load(std::memory_order_relaxed);
        front.Send(conn, Encode(ack), /*droppable=*/false);
        return true;
      }
      case net::MsgType::kIngest: {
        Op op;
        op.kind = Op::Kind::kBatch;
        op.conn = conn;
        if (!net::Decode(payload, &op.ingest, &error)) {
          return Refuse(conn, error);
        }
        // Ownership is the router's to assign; client-provided flags are
        // meaningless here.
        op.ingest.owner.clear();
        return EnqueueOp(std::move(op));
      }
      case net::MsgType::kSubscribe: {
        net::SubscribeMsg sub;
        if (!net::Decode(payload, &sub, &error)) {
          return Refuse(conn, error);
        }
        // Same pre-validation as the single server: a bad wire query gets
        // a refusal, not a crashed worker. resume_from is ignored — the
        // router keeps no resume ring (see router.h).
        Workload probe(options.window_type, options.metric);
        probe.AddQuery(sub.query);
        const std::string verdict = probe.Validate();
        if (!verdict.empty()) {
          stats.refused_subscribes.fetch_add(1, std::memory_order_relaxed);
          net::SubscribeAckMsg ack;
          ack.error = verdict;
          front.Send(conn, Encode(ack), /*droppable=*/false);
          return true;
        }
        Op op;
        op.kind = Op::Kind::kSubscribe;
        op.conn = conn;
        op.query = sub.query;
        return EnqueueOp(std::move(op));
      }
      case net::MsgType::kUnsubscribe: {
        net::UnsubscribeMsg unsub;
        if (!net::Decode(payload, &unsub, &error)) {
          return Refuse(conn, error);
        }
        // A client may only retire its own subscriptions.
        bool owned = false;
        {
          std::lock_guard<std::mutex> lock(conn->mu);
          owned = conn->subs.count(unsub.query_id) > 0;
        }
        if (!owned) {
          net::UnsubscribeAckMsg ack;
          front.Send(conn, Encode(ack), /*droppable=*/false);
          return true;
        }
        Op op;
        op.kind = Op::Kind::kUnsubscribe;
        op.conn = conn;
        op.query_id = unsub.query_id;
        return EnqueueOp(std::move(op));
      }
      case net::MsgType::kPing: {
        net::PingMsg ping;
        if (!net::Decode(payload, &ping, &error)) {
          return Refuse(conn, error);
        }
        net::PongMsg pong;
        pong.token = ping.token;
        pong.role = static_cast<uint32_t>(net::ServerRole::kPrimary);
        pong.last_boundary = last_boundary.load(std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> lock(ops_mu);
          pong.ingest_queue_depth = ops.size();
        }
        pong.send_queue_depth = front.SendQueueDepth();
        pong.active_connections = front.stats().active;
        front.Send(conn, Encode(pong), /*droppable=*/false);
        return true;
      }
      default:
        SendError(conn, std::string("unexpected client message: ") +
                            MsgTypeName(type));
        return true;
    }
  }

  // --- worker side -------------------------------------------------------

  // Adds what `w`'s client counted since the last call (the handshake in
  // Start included, at the first) to the router's totals: the client's
  // counts are the source. Called before a worker counts its share done,
  // so whoever sees the round joined sees its traffic.
  void CountTraffic(Worker* w) {
    auto add = [](std::atomic<uint64_t>* total, uint64_t now,
                  uint64_t* seen) {
      total->fetch_add(now - *seen, std::memory_order_relaxed);
      *seen = now;
    };
    add(&stats.worker_reconnects, w->client.reconnects(), &w->reconnects_seen);
    add(&stats.worker_bytes_out, w->client.bytes_sent(), &w->bytes_out_seen);
    add(&stats.worker_bytes_in, w->client.bytes_received(),
        &w->bytes_in_seen);
  }

  // Runs each round's share on `w` until Stop() ends the rounds.
  void WorkerLoop(Worker* w) {
    uint64_t seen = 0;
    for (;;) {
      const std::function<void(Worker&)>* fn = nullptr;
      {
        std::unique_lock<std::mutex> lock(round_mu);
        round_cv.wait(lock, [&] { return workers_stop || round != seen; });
        if (round == seen) break;  // stopping, and every round has run
        seen = round;
        fn = round_fn;
      }
      (*fn)(*w);
      CountTraffic(w);
      std::lock_guard<std::mutex> lock(round_mu);
      if (++round_done == workers.size()) joined_cv.notify_one();
    }
    CountTraffic(w);
  }

  // Runs `fn` once on every worker, each on its own thread, and returns
  // when all have. Route loop only, so rounds never overlap.
  void RunOnWorkers(const std::function<void(Worker&)>& fn) {
    std::unique_lock<std::mutex> lock(round_mu);
    round_fn = &fn;
    round_done = 0;
    ++round;
    round_cv.notify_all();
    joined_cv.wait(lock, [&] { return round_done == workers.size(); });
    round_fn = nullptr;
  }

  // --- route loop --------------------------------------------------------

  // Reconciles one worker's sequence map with the outcome of the batch it
  // was just handed (route loop only; `cnt` entries were appended for the
  // batch). An acked batch carries the worker's authoritative arrival
  // counter, which pins the map exactly; a transport failure leaves an
  // open gap — nothing says whether the worker numbered those points —
  // and the map stays desynced (untranslatable) until a later ack's
  // counter resolves every open gap.
  void RealignSeqMap(SeqMap& sm, size_t cnt, const WorkerBatchResult& r) {
    if (!r.ok) {
      if (cnt > 0) {
        sm.gaps.push_back(SeqMap::Gap{
            sm.base + static_cast<int64_t>(sm.entries.size()) -
                static_cast<int64_t>(cnt),
            static_cast<int64_t>(cnt)});
      }
      return;
    }
    // A refused batch never numbered its points; drop the tail entries
    // past whatever prefix the worker accepted.
    if (r.accepted < cnt) {
      const size_t drop = cnt - static_cast<size_t>(r.accepted);
      sm.entries.erase(sm.entries.end() - static_cast<int64_t>(drop),
                       sm.entries.end());
    }
    const int64_t target = static_cast<int64_t>(r.next_seq);
    int64_t drift =
        sm.base + static_cast<int64_t>(sm.entries.size()) - target;
    if (drift != 0 && !sm.gaps.empty()) {
      // The counter is short by exactly the batches the worker never
      // applied. If the drift accounts for every open gap, none was
      // applied: excise their entries (descending, so earlier indices
      // stay valid) and un-advance base for any gap entries the horizon
      // prune already popped — those pops assumed the worker had
      // numbered them.
      int64_t gap_total = 0;
      for (const SeqMap::Gap& g : sm.gaps) gap_total += g.count;
      if (drift == gap_total) {
        int64_t pruned_total = 0;
        for (size_t i = sm.gaps.size(); i-- > 0;) {
          const SeqMap::Gap& g = sm.gaps[i];
          const int64_t pruned =
              std::min(std::max<int64_t>(sm.base - g.start, 0), g.count);
          const int64_t live = g.count - pruned;
          if (live > 0) {
            const int64_t idx0 = std::max<int64_t>(g.start - sm.base, 0);
            sm.entries.erase(sm.entries.begin() + idx0,
                             sm.entries.begin() + idx0 + live);
          }
          pruned_total += pruned;
        }
        sm.base -= pruned_total;
        drift = sm.base + static_cast<int64_t>(sm.entries.size()) - target;
      }
    }
    if (drift != 0) {
      // Ambiguous history (gaps applied in part, or a worker that lost
      // its counter): anchor on what this ack proves — the worker
      // numbered this batch's accepted points at [next_seq - accepted,
      // next_seq). Everything older is untranslatable; a translation
      // reaching below base surfaces as degraded, and heals as those
      // points fall out of the worker's window.
      const size_t keep =
          std::min(static_cast<size_t>(r.accepted), sm.entries.size());
      sm.entries.erase(sm.entries.begin(),
                       sm.entries.end() - static_cast<int64_t>(keep));
      sm.base = target - static_cast<int64_t>(keep);
    }
    sm.gaps.clear();
  }

  // Retires global query `qid` on every worker that registered it. True
  // when every worker confirmed.
  bool RetireOnWorkers(int64_t qid) {
    std::vector<uint8_t> retired(workers.size(), 0);
    RunOnWorkers([&](Worker& w) {
      const auto it = w.global_to_client.find(qid);
      if (it == w.global_to_client.end()) return;
      std::string error;
      retired[static_cast<size_t>(w.index)] =
          w.client.Unsubscribe(it->second, &error) ? 1 : 0;
      w.client_to_global.erase(it->second);
      w.global_to_client.erase(it);
    });
    return std::find(retired.begin(), retired.end(), 0) == retired.end();
  }

  void HandleSubscribe(Op& op) {
    // Halo admission: with auto sizing the width tracks the largest radius
    // of the live query set until the first routed batch freezes it;
    // after that (or with an explicit width) any query whose radius
    // exceeds the halo would see incomplete neighborhoods at region edges,
    // so it is refused instead of silently degrading.
    double width = halo.load(std::memory_order_relaxed);
    if (options.halo < 0.0 && !halo_frozen) {
      Workload wl(options.window_type, options.metric);
      {
        std::lock_guard<std::mutex> lock(subs_mu);
        for (const auto& entry : subs) wl.AddQuery(entry.second.query);
      }
      wl.AddQuery(op.query);
      if (wl.Validate().empty()) {
        width = std::max(width, HaloFromBasis(wl));
        halo.store(width, std::memory_order_relaxed);
      }
    }
    if (op.query.r > width) {
      stats.refused_subscribes.fetch_add(1, std::memory_order_relaxed);
      net::SubscribeAckMsg ack;
      ack.error = "query radius " + std::to_string(op.query.r) +
                  " exceeds the cluster halo width " + std::to_string(width) +
                  (halo_frozen ? " (frozen at first ingest; redeploy with "
                                 "a --halo covering it)"
                               : "");
      front.Send(op.conn, Encode(ack), /*droppable=*/false);
      return;
    }
    const int64_t qid = next_query_id++;
    std::vector<std::string> refusals(workers.size());  // "" = registered
    RunOnWorkers([&](Worker& w) {
      std::string error;
      const int64_t cid = w.client.Subscribe(op.query, &error);
      if (cid == 0) {
        refusals[static_cast<size_t>(w.index)] =
            error.empty() ? "subscription failed on a worker" : error;
        return;
      }
      w.global_to_client[qid] = cid;
      w.client_to_global[cid] = qid;
    });
    const auto refused =
        std::find_if(refusals.begin(), refusals.end(),
                     [](const std::string& r) { return !r.empty(); });
    if (refused != refusals.end()) {
      // Partial registrations roll back so no worker computes for a query
      // the router never confirmed.
      RetireOnWorkers(qid);
      stats.refused_subscribes.fetch_add(1, std::memory_order_relaxed);
      net::SubscribeAckMsg ack;
      ack.error = *refused;
      front.Send(op.conn, Encode(ack), /*droppable=*/false);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(subs_mu);
      subs[qid] = SubState{op.query, op.conn};
    }
    {
      std::lock_guard<std::mutex> lock(op.conn->mu);
      op.conn->subs.emplace(qid, net::kNoResume);  // no resume suppression
    }
    max_win = std::max(max_win, op.query.win);
    stats.subscribes.fetch_add(1, std::memory_order_relaxed);
    net::SubscribeAckMsg ack;
    ack.query_id = qid;
    front.Send(op.conn, Encode(ack), /*droppable=*/false);
  }

  void HandleRetire(Op& op) {
    const bool retired = RetireOnWorkers(op.query_id);
    {
      std::lock_guard<std::mutex> lock(subs_mu);
      subs.erase(op.query_id);
    }
    if (op.conn != nullptr) {  // kUnsubscribe (kDetach has no reply target)
      {
        std::lock_guard<std::mutex> lock(op.conn->mu);
        op.conn->subs.erase(op.query_id);
      }
      net::UnsubscribeAckMsg ack;
      ack.ok = retired;
      front.Send(op.conn, Encode(ack), /*droppable=*/false);
    }
    stats.unsubscribes.fetch_add(1, std::memory_order_relaxed);
  }

  void HandleBatch(Op& op) {
    const int64_t boundary = op.ingest.boundary;
    // The single server's rules, on the whole batch: no worker sees more
    // than its shard of it.
    const std::string refusal = tail.Check(op.ingest.points, boundary);
    if (!refusal.empty()) {
      Refuse(op.conn, refusal);
      net::IngestAckMsg ack;
      ack.boundary = boundary;
      // Refusal: the arrival counter is unchanged (v4 ack contract).
      ack.next_seq = static_cast<uint64_t>(tail.next_seq());
      front.Send(op.conn, Encode(ack), /*droppable=*/false);
      return;
    }
    tail.Push(&op.ingest.points, boundary, /*reach=*/0);
    if (!halo_frozen) {
      // First batch: the halo (and with it the partitioner) is final —
      // replicas already shipped cannot be widened retroactively.
      halo_frozen = true;
      partitioner = std::make_unique<Partitioner>(
          options.partition, halo.load(std::memory_order_relaxed));
    }

    SOP_TRACE("cluster/route/batch_ms");
    const size_t count = op.ingest.points.size();
    const size_t parts = workers.size();
    std::vector<std::vector<Point>> routed(parts);
    std::vector<std::vector<uint8_t>> owner(parts);
    uint64_t copies = 0;
    uint64_t halo_copies = 0;
    std::vector<ShardAssignment> assignments;
    for (Point& p : op.ingest.points) {
      const Seq global = p.seq;
      const double key = p.values.empty() ? 0.0 : p.values[0];
      const int64_t prune_key =
          options.window_type == WindowType::kCount ? global : p.time;
      if (options.window_type == WindowType::kCount) {
        // Count -> time translation (see router.h): workers run time
        // windows keyed by the global arrival index, which restricts the
        // global count window to each shard exactly.
        p.time = global;
      }
      assignments.clear();
      partitioner->AssignmentsOf(key, &assignments);
      for (const ShardAssignment& a : assignments) {
        routed[a.shard].push_back(p);
        owner[a.shard].push_back(a.owner ? 1 : 0);
        seq_maps[a.shard].entries.push_back(
            MapEntry{global, prune_key, a.owner});
        ++copies;
        if (!a.owner) ++halo_copies;
      }
    }
    stats.ingest_batches.fetch_add(1, std::memory_order_relaxed);
    stats.ingest_points.fetch_add(count, std::memory_order_relaxed);
    stats.routed_points.fetch_add(copies, std::memory_order_relaxed);
    stats.halo_points.fetch_add(halo_copies, std::memory_order_relaxed);

    // Fork-join: every worker advances to `boundary` (or fails) before
    // the merge — emissions must precede the ingest ack, and the ack must
    // mean the whole cluster moved.
    std::vector<WorkerBatchResult> results(parts);
    RunOnWorkers([&](Worker& w) {
      const auto i = static_cast<size_t>(w.index);
      WorkerBatchResult& r = results[i];
      net::IngestAckMsg ack;
      std::string error;
      r.ok = w.client.Ingest(boundary, routed[i], owner[i], &ack, &error);
      if (r.ok) {
        r.accepted = ack.accepted;
        r.next_seq = ack.next_seq;
      }
      if (w.points_counter != nullptr && obs::Enabled()) {
        w.points_counter->Add(routed[i].size());
      }
      // A worker's refusal arrives as an error push ahead of its ack.
      for (net::ErrorMsg& e : w.client.TakeErrors()) {
        r.errors.push_back(std::move(e.message));
      }
      for (net::EmissionMsg& e : w.client.TakeEmissions()) {
        const auto it = w.client_to_global.find(e.query_id);
        if (it == w.client_to_global.end()) continue;  // retired
        e.query_id = it->second;
        r.emissions.push_back(std::move(e));
      }
    });
    bool batch_failed = false;
    std::string worker_refusal;  // the first refusing worker's diagnostic
    for (size_t i = 0; i < parts; ++i) {
      const WorkerBatchResult& r = results[i];
      stats.protocol_errors.fetch_add(r.errors.size(),
                                      std::memory_order_relaxed);
      if (!r.ok || r.accepted != routed[i].size()) batch_failed = true;
      if (r.ok && r.accepted < routed[i].size() && worker_refusal.empty()) {
        worker_refusal =
            "worker " + std::to_string(i) + ": " +
            (r.errors.empty() ? "refused its share" : r.errors.front());
      }
      RealignSeqMap(seq_maps[i], routed[i].size(), r);
    }
    bool any_desync = false;
    for (const SeqMap& sm : seq_maps) any_desync = any_desync || sm.desynced();
    if (batch_failed) {
      // A shard never applied the batch (worker unreachable past bounded
      // recovery, or out of step). The stream keeps moving — losing one
      // shard's verdicts forever would otherwise stall every query — but
      // every window that reaches back to this batch misses that shard's
      // points, so each merged emission below this boundary plus the
      // widest window is marked degraded.
      stats.worker_failures.fetch_add(1, std::memory_order_relaxed);
      degraded_until = std::max(degraded_until,
                                boundary > INT64_MAX - max_win
                                    ? INT64_MAX
                                    : boundary + max_win);
    }
    // Health flag, not a latch: set while any shard's verdicts are missing
    // or its sequence map is desynced, cleared again once a batch
    // completes past the last hole's windows with every worker realigned
    // (see router.h).
    stats.degraded.store(
        batch_failed || any_desync || boundary < degraded_until,
        std::memory_order_relaxed);

    // Merge: group per-worker emissions by (boundary, query) — a worker
    // recovering mid-batch may replay an earlier boundary it never
    // delivered — translate worker-local seqs to global ones through the
    // shard's sequence map, drop verdicts for points the emitting shard
    // does not own, and union the rest in ascending global-seq order.
    SOP_TRACE("cluster/merge/merge_ms");
    std::map<std::pair<int64_t, int64_t>, net::EmissionMsg> merged;
    uint64_t dropped_halo = 0;
    for (size_t i = 0; i < parts; ++i) {
      SeqMap& sm = seq_maps[i];
      for (net::EmissionMsg& em : results[i].emissions) {
        net::EmissionMsg& m = merged[{em.boundary, em.query_id}];
        m.query_id = em.query_id;
        m.boundary = em.boundary;
        m.degraded = m.degraded || em.degraded;
        if (sm.desynced()) {
          // An open gap means the map's local->global translation cannot
          // be trusted for this shard — a shifted index would resolve in
          // range to the WRONG global seq. Say the verdicts are missing
          // rather than emit corrupted ones.
          m.degraded = true;
          continue;
        }
        for (const Seq local : em.outliers) {
          const int64_t idx = local - sm.base;
          if (idx < 0 || idx >= static_cast<int64_t>(sm.entries.size())) {
            // Outside the retained map: a worker out of step (restarted
            // without its checkpoint). Flag rather than guess.
            m.degraded = true;
            continue;
          }
          const MapEntry& e = sm.entries[static_cast<size_t>(idx)];
          if (!e.owned) {
            ++dropped_halo;
            continue;
          }
          m.outliers.push_back(e.global);
        }
      }
    }
    stats.dropped_halo_outliers.fetch_add(dropped_halo,
                                          std::memory_order_relaxed);

    // Emit in canonical (boundary, query) order; map iteration gives it.
    uint64_t to_ingester = 0;
    uint64_t emitted = 0;
    for (auto& entry : merged) {
      net::EmissionMsg& m = entry.second;
      std::sort(m.outliers.begin(), m.outliers.end());
      m.outliers.erase(std::unique(m.outliers.begin(), m.outliers.end()),
                       m.outliers.end());
      if (batch_failed || m.boundary < degraded_until) m.degraded = true;
      net::FrontConnPtr target;
      {
        std::lock_guard<std::mutex> lock(subs_mu);
        const auto it = subs.find(m.query_id);
        if (it != subs.end()) target = it->second.conn;
      }
      if (target == nullptr) continue;  // retired mid-batch
      if (target == op.conn) ++to_ingester;
      front.Send(target, Encode(m), /*droppable=*/true);
      ++emitted;
    }
    stats.merged_emissions.fetch_add(emitted, std::memory_order_relaxed);
    stats.merged_boundaries.fetch_add(1, std::memory_order_relaxed);
    last_boundary.store(boundary, std::memory_order_relaxed);

    // Ack after the batch's emissions: same contract as the single
    // server, and what makes blocking clients deterministic. A worker that
    // refused its share fails the ack with its diagnostic, as a single
    // server's refusal would; the other shards have moved on.
    if (!worker_refusal.empty()) SendError(op.conn, worker_refusal);
    net::IngestAckMsg ack;
    ack.boundary = boundary;
    ack.accepted = worker_refusal.empty() ? count : 0;
    ack.emissions = to_ingester;
    // The router's global arrival counter after this batch — same v4
    // contract as the single server's ack.
    ack.next_seq = static_cast<uint64_t>(tail.next_seq());
    front.Send(op.conn, Encode(ack), /*droppable=*/false);

    // Prune the sequence maps past the merge horizon: no future window
    // can reach keys older than boundary - max_win.
    const int64_t horizon = boundary - max_win;
    for (SeqMap& sm : seq_maps) {
      while (!sm.entries.empty() && sm.entries.front().key < horizon) {
        sm.entries.pop_front();
        ++sm.base;
      }
    }
  }

  void RouteLoop() {
    for (;;) {
      Op op;
      {
        std::unique_lock<std::mutex> lock(ops_mu);
        ops_cv_push.wait(lock, [&] { return draining || !ops.empty(); });
        if (ops.empty()) return;  // draining and drained
        op = std::move(ops.front());
        ops.pop_front();
        ops_cv_pop.notify_one();
      }
      switch (op.kind) {
        case Op::Kind::kBatch:
          HandleBatch(op);
          break;
        case Op::Kind::kSubscribe:
          HandleSubscribe(op);
          break;
        case Op::Kind::kUnsubscribe:
        case Op::Kind::kDetach:
          HandleRetire(op);
          break;
      }
    }
  }
};

SopRouter::SopRouter(RouterOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

SopRouter::~SopRouter() { Stop(); }

bool SopRouter::Start(std::string* error) {
  Impl& im = *impl_;
  const RouterOptions& opt = im.options;
  if (opt.workers.empty()) {
    if (error != nullptr) *error = "no workers configured";
    return false;
  }
  if (opt.partition.parts() != static_cast<int>(opt.workers.size())) {
    if (error != nullptr) {
      *error = "partition describes " +
               std::to_string(opt.partition.parts()) + " shards but " +
               std::to_string(opt.workers.size()) + " workers are listed";
    }
    return false;
  }
  if (!opt.partition.Validate(error)) return false;
  if (opt.halo >= 0.0) {
    im.halo.store(opt.halo, std::memory_order_relaxed);
  }

  // Connect and vet every worker before serving anything: a cluster with
  // a misconfigured shard is wrong on every batch.
  im.workers.clear();
  im.seq_maps.assign(opt.workers.size(), Impl::SeqMap{});
  for (size_t i = 0; i < opt.workers.size(); ++i) {
    auto w = std::make_unique<Impl::Worker>();
    w->index = static_cast<int>(i);
    w->endpoint = opt.workers[i];
    std::string werror;
    if (!w->client.Connect(w->endpoint.host, w->endpoint.port, &werror)) {
      if (error != nullptr) {
        *error = "worker " + std::to_string(i) + " (" + w->endpoint.host +
                 ":" + std::to_string(w->endpoint.port) + "): " + werror;
      }
      return false;
    }
    const net::HelloAckMsg& info = w->client.server_info();
    std::string mismatch;
    if (static_cast<WindowType>(info.window_type) != WindowType::kTime) {
      mismatch = "serves count windows; cluster workers must serve time "
                 "windows (the router translates count deployments)";
    } else if (static_cast<Metric>(info.metric) != opt.metric) {
      mismatch = "serves a different distance metric";
    } else if (info.detector != opt.detector) {
      mismatch = "serves detector '" + info.detector + "', cluster wants '" +
                 opt.detector + "'";
    } else if (static_cast<net::ServerRole>(info.role) !=
               net::ServerRole::kPrimary) {
      mismatch = "is a standby, not a serving primary";
    }
    if (!mismatch.empty()) {
      if (error != nullptr) {
        *error = "worker " + std::to_string(i) + " (" + w->endpoint.host +
                 ":" + std::to_string(w->endpoint.port) + ") " + mismatch;
      }
      return false;
    }
    net::ReconnectOptions ro = opt.worker_reconnect;
    ro.endpoints = {w->endpoint};
    w->client.EnableReconnect(std::move(ro));
    if (obs::Enabled()) {
      w->points_counter = &obs::MetricsRegistry::Global().GetCounter(
          "cluster/worker/" + std::to_string(i) + "/points");
    }
    im.workers.push_back(std::move(w));
  }

  if (!im.front.Start(&port_, error)) return false;

  for (std::unique_ptr<Impl::Worker>& w : im.workers) {
    Impl::Worker* raw = w.get();
    raw->thread = std::thread([&im, raw] { im.WorkerLoop(raw); });
  }
  im.route_thread = std::thread([&im] { im.RouteLoop(); });
  return true;
}

void SopRouter::Stop() {
  Impl& im = *impl_;
  bool expected = false;
  if (!im.stopping.compare_exchange_strong(expected, true)) {
    return;  // already stopped (or stopping)
  }

  // 1. Stop accepting and abort every client connection: readers wake on
  // the shutdown, their queued acks are dropped (the peers are gone).
  // Blocking clients have already received acks for everything they
  // ingested.
  im.front.Abort();

  // 2. Drain the route loop: remaining queued ops complete against the
  // still-running workers, then the loop exits.
  {
    std::lock_guard<std::mutex> lock(im.ops_mu);
    im.draining = true;
  }
  im.ops_cv_push.notify_all();
  im.ops_cv_pop.notify_all();
  if (im.route_thread.joinable()) im.route_thread.join();

  // 3. End the worker threads and close their clients.
  {
    std::lock_guard<std::mutex> lock(im.round_mu);
    im.workers_stop = true;
  }
  im.round_cv.notify_all();
  for (std::unique_ptr<Impl::Worker>& w : im.workers) {
    if (w->thread.joinable()) w->thread.join();
    w->client.Close();
  }
}

RouterStats SopRouter::stats() const {
  const Impl::AtomicStats& a = impl_->stats;
  const net::Frontend::Stats front = impl_->front.stats();
  RouterStats s;
  s.connections = front.connections;
  s.active_clients = front.active;
  s.ingest_batches = a.ingest_batches.load(std::memory_order_relaxed);
  s.ingest_points = a.ingest_points.load(std::memory_order_relaxed);
  s.routed_points = a.routed_points.load(std::memory_order_relaxed);
  s.halo_points = a.halo_points.load(std::memory_order_relaxed);
  s.merged_boundaries = a.merged_boundaries.load(std::memory_order_relaxed);
  s.merged_emissions = a.merged_emissions.load(std::memory_order_relaxed);
  s.dropped_halo_outliers =
      a.dropped_halo_outliers.load(std::memory_order_relaxed);
  s.subscribes = a.subscribes.load(std::memory_order_relaxed);
  s.refused_subscribes =
      a.refused_subscribes.load(std::memory_order_relaxed);
  s.unsubscribes = a.unsubscribes.load(std::memory_order_relaxed);
  s.protocol_errors = a.protocol_errors.load(std::memory_order_relaxed);
  s.worker_reconnects = a.worker_reconnects.load(std::memory_order_relaxed);
  s.worker_failures = a.worker_failures.load(std::memory_order_relaxed);
  s.worker_bytes_out = a.worker_bytes_out.load(std::memory_order_relaxed);
  s.worker_bytes_in = a.worker_bytes_in.load(std::memory_order_relaxed);
  s.degraded = a.degraded.load(std::memory_order_relaxed);
  s.last_boundary = impl_->last_boundary.load(std::memory_order_relaxed);
  s.halo = impl_->halo.load(std::memory_order_relaxed);
  s.workers = static_cast<uint32_t>(impl_->options.workers.size());
  return s;
}

}  // namespace cluster
}  // namespace sop
