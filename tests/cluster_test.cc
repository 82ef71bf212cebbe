// End-to-end tests of the scale-out plane (cluster/router.h):
//
//   * routed equivalence — a router fronting >= 2 workers over loopback
//     must emit exactly what a direct ExecutionEngine run emits, after
//     canonical (boundary, query) ordering, for every registered detector
//     over both window types (the merge-exactness contract),
//   * the same equivalence on the simulated transport with seeded
//     latency spikes on every connection in the fabric,
//   * the same equivalence across a worker kill + restart on the same
//     port (checkpoint_every_batches=1), ridden out by the worker
//     client's recovery — no lost or duplicated emissions,
//   * halo admission: a post-freeze subscribe with r > halo is refused
//     with a diagnostic, not silently degraded,
//   * stale boundaries and bad queries are refused at the router, and a
//     ping reports the router's role and position.
//
// All assertions read RouterStats/ServerStats (always-on atomics), never
// obs counters, so the suite passes identically under -DSOP_NO_OBS. One
// test checks that the global obs registry holds no copy of those counts.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "sop/cluster/partition.h"
#include "sop/cluster/router.h"
#include "sop/common/random.h"
#include "sop/detector/factory.h"
#include "sop/net/client.h"
#include "sop/net/protocol.h"
#include "sop/net/server.h"
#include "sop/net/socket.h"
#include "sop/obs/metrics.h"
#include "sop/sim/sim.h"
#include "sop/stream/window.h"
#include "test_util.h"

namespace sop {
namespace cluster {
namespace {

using testing::CollectResults;

using net::IngestAckMsg;
using net::EmissionMsg;
using net::ServerOptions;
using net::SopClient;
using net::SopServer;

/// Polls `pred` until true or `timeout_ms` elapses.
bool WaitUntil(const std::function<bool()>& pred, int64_t timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Same stream shape as net_test.cc: a unit-variance cluster with ~5%
/// spikes at +-8, so a 2-worker split at 0.0 exercises both regions and
/// the halo band around the cut.
std::vector<Point> GenPoints(size_t n, bool time_windows, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  points.reserve(n);
  Timestamp t = 0;
  for (size_t i = 0; i < n; ++i) {
    if (time_windows) {
      t += 1 + static_cast<Timestamp>(rng.NextBelow(2));
      if (i % 97 == 96) t += 35;
    } else {
      t = static_cast<Timestamp>(i);
    }
    double v = rng.Normal(0.0, 1.0);
    if (rng.Bernoulli(0.05)) v += rng.Bernoulli(0.5) ? 8.0 : -8.0;
    points.emplace_back(static_cast<Seq>(i), t, std::vector<double>{v});
  }
  return points;
}

struct Batch {
  std::vector<Point> points;
  int64_t boundary = 0;
};

std::vector<Batch> SliceCount(const std::vector<Point>& points,
                              int64_t span) {
  std::vector<Batch> batches;
  int64_t shipped = 0;
  const size_t step = static_cast<size_t>(span);
  for (size_t start = 0; start + step <= points.size(); start += step) {
    Batch b;
    b.points.assign(points.begin() + static_cast<int64_t>(start),
                    points.begin() + static_cast<int64_t>(start + step));
    shipped += span;
    b.boundary = shipped;
    batches.push_back(std::move(b));
  }
  return batches;
}

std::vector<Batch> SliceTime(const std::vector<Point>& points, int64_t span) {
  std::vector<Batch> batches;
  int64_t boundary = FirstBoundaryAtOrAfter(points.front().time + 1, span);
  std::vector<Point> cur;
  for (const Point& p : points) {
    while (p.time >= boundary) {
      batches.push_back({std::move(cur), boundary});
      cur = {};
      boundary += span;
    }
    cur.push_back(p);
  }
  if (!cur.empty()) batches.push_back({std::move(cur), boundary});
  return batches;
}

std::vector<Batch> Slice(const Workload& workload,
                         const std::vector<Point>& points) {
  return workload.window_type() == WindowType::kCount
             ? SliceCount(points, workload.SlideGcd())
             : SliceTime(points, workload.SlideGcd());
}

/// One worker fleet + router over loopback. Workers always serve TIME
/// windows (the router translates count deployments) with history deep
/// enough for the tests' largest window.
struct TestCluster {
  std::vector<std::unique_ptr<SopServer>> workers;
  std::unique_ptr<SopRouter> router;

  ~TestCluster() {
    if (router != nullptr) router->Stop();
    for (std::unique_ptr<SopServer>& w : workers) {
      if (w != nullptr) w->Stop();
    }
  }
};

ServerOptions WorkerOptions(const std::string& detector) {
  ServerOptions options;
  options.window_type = WindowType::kTime;  // always; see router.h
  options.detector = detector;
  options.history_window = 1 << 14;
  return options;
}

bool StartCluster(TestCluster* tc, int num_workers,
                  const std::string& detector, WindowType window_type,
                  std::string* error,
                  const std::string& checkpoint_prefix = "",
                  const net::ReconnectOptions* worker_reconnect = nullptr) {
  RouterOptions ro;
  ro.window_type = window_type;
  ro.detector = detector;
  if (worker_reconnect != nullptr) ro.worker_reconnect = *worker_reconnect;
  for (int i = 0; i < num_workers; ++i) {
    ServerOptions wo = WorkerOptions(detector);
    if (!checkpoint_prefix.empty()) {
      wo.checkpoint_path =
          checkpoint_prefix + std::to_string(i) + ".checkpoint";
      wo.checkpoint_every_batches = 1;
    }
    auto worker = std::make_unique<SopServer>(wo);
    if (!worker->Start(error)) return false;
    ro.workers.push_back({"127.0.0.1", worker->port()});
    tc->workers.push_back(std::move(worker));
  }
  // Interior cuts around the data's dense band: the cluster sits at 0, the
  // spikes at +-8, so every region and the halo band see traffic.
  ro.partition = PartitionSpec::Uniform(-6.0, 6.0, num_workers);
  tc->router = std::make_unique<SopRouter>(ro);
  return tc->router->Start(error);
}

/// net_test.cc's RunLoopback against the router's front port: the router
/// speaks the same wire protocol, so the client code is identical.
std::vector<QueryResult> RunRouted(int port,
                                   const std::vector<OutlierQuery>& queries,
                                   const std::vector<Batch>& batches,
                                   const std::string& label) {
  std::vector<QueryResult> results;
  SopClient client;
  std::string error;
  EXPECT_TRUE(client.Connect("127.0.0.1", port, &error)) << label << ": "
                                                         << error;
  if (!client.connected()) return results;

  std::map<int64_t, size_t> index_of;
  for (size_t i = 0; i < queries.size(); ++i) {
    const int64_t id = client.Subscribe(queries[i], &error);
    EXPECT_GT(id, 0) << label << ": " << error;
    if (id <= 0) return results;
    index_of[id] = i;
  }
  for (const Batch& b : batches) {
    IngestAckMsg ack;
    EXPECT_TRUE(client.Ingest(b.boundary, b.points, &ack, &error))
        << label << ": " << error;
    EXPECT_EQ(ack.accepted, b.points.size()) << label;
    for (const EmissionMsg& e : client.TakeEmissions()) {
      EXPECT_TRUE(index_of.count(e.query_id) != 0)
          << label << ": emission for unknown query id " << e.query_id;
      EXPECT_FALSE(e.degraded) << label << " @" << e.boundary;
      QueryResult r;
      r.query_index = index_of[e.query_id];
      r.boundary = e.boundary;
      r.outliers = e.outliers;
      results.push_back(std::move(r));
    }
  }
  for (const auto& entry : index_of) {
    EXPECT_TRUE(client.Unsubscribe(entry.first, &error))
        << label << ": " << error;
  }
  return results;
}

std::vector<OutlierQuery> TestQueries(bool time_windows) {
  if (time_windows) {
    return {OutlierQuery(1.5, 4, 80, 20), OutlierQuery(2.0, 3, 120, 30)};
  }
  return {OutlierQuery(1.5, 4, 100, 50), OutlierQuery(2.0, 3, 150, 50)};
}

// --- routed equivalence ---------------------------------------------------

// The merge-exactness contract: a routed run over >= 2 workers emits
// exactly what a direct single-node engine run emits, for every detector
// the factory knows, over both window types. The second pass runs the
// whole fabric (client->router, router->workers) on SimNet with a seeded
// fifth of all segments delivered late: the emission stream is unchanged.
TEST(ClusterTest, RoutedMatchesEngineEveryDetector) {
  for (const bool delayed : {false, true}) {
    for (const bool time_windows : {false, true}) {
      const WindowType wt =
          time_windows ? WindowType::kTime : WindowType::kCount;
      Workload workload(wt);
      const std::vector<OutlierQuery> queries = TestQueries(time_windows);
      for (const OutlierQuery& q : queries) workload.AddQuery(q);
      ASSERT_EQ(workload.Validate(), "");
      const std::vector<Point> points =
          GenPoints(time_windows ? 240 : 320, time_windows,
                    /*seed=*/7 + (time_windows ? 1 : 0));
      const std::vector<Batch> batches = Slice(workload, points);
      ASSERT_GT(batches.size(), 3u);

      for (const std::string& name : KnownDetectorNames()) {
        const std::string label = name + (time_windows ? "/time" : "/count") +
                                  (delayed ? " routed delayed" : " routed");
        std::unique_ptr<OutlierDetector> detector =
            CreateDetector(name, workload);
        const std::vector<QueryResult> expected =
            CollectResults(workload, points, detector.get());

        // Declared before the cluster, so the cluster stops while the sim
        // is still armed.
        std::unique_ptr<sim::SimNet> sim;
        std::unique_ptr<sim::ScopedSim> armed;
        if (delayed) {
          sim = std::make_unique<sim::SimNet>(/*seed=*/1234);
          armed = std::make_unique<sim::ScopedSim>(sim.get());
          sim::FaultRule delay;
          delay.action = sim::FaultRule::Action::kDelay;
          delay.rate = 0.2;
          delay.delay_us = 2000;
          sim->AddRule(delay);
        }
        TestCluster tc;
        std::string error;
        ASSERT_TRUE(StartCluster(&tc, 2, name, wt, &error))
            << label << ": " << error;
        const std::vector<QueryResult> actual =
            RunRouted(tc.router->port(), queries, batches, label);
        tc.router->Stop();
        testing::ExpectSameResults(expected, actual, label);
        if (delayed) {
          EXPECT_GT(sim->stats().delayed, 0u) << label;
        }

        size_t sliced = 0;  // SliceCount drops the tail that fills no slide
        for (const Batch& b : batches) sliced += b.points.size();
        const RouterStats stats = tc.router->stats();
        EXPECT_EQ(stats.ingest_batches, batches.size()) << label;
        EXPECT_EQ(stats.ingest_points, sliced) << label;
        // The halo must actually be exercised: points near the cut are
        // replicated, and some replicas' verdicts get dropped in the merge.
        EXPECT_GT(stats.routed_points, stats.ingest_points) << label;
        EXPECT_GT(stats.halo_points, 0u) << label;
        EXPECT_EQ(stats.worker_failures, 0u) << label;
        EXPECT_FALSE(stats.degraded) << label;
        EXPECT_EQ(stats.protocol_errors, 0u) << label;
        EXPECT_GE(stats.halo, 2.0) << label;  // r_max of the query set
        // Workers saw the shard-config handshake and halo replicas.
        uint64_t worker_halo = 0;
        for (size_t w = 0; w < tc.workers.size(); ++w) {
          const net::ServerStats ws = tc.workers[w]->stats();
          EXPECT_TRUE(ws.sharded) << label << " worker " << w;
          EXPECT_EQ(ws.num_shards, 2u) << label << " worker " << w;
          worker_halo += ws.halo_points;
        }
        EXPECT_EQ(worker_halo, stats.halo_points) << label;
      }
    }
  }
}

// Multi-attribute streams through the router: the partitioner cuts on the
// FIRST attribute only while distances are full-dimensional, and
// partition.h's exactness argument says one attribute suffices. Worst
// case for that argument: spikes usually land on a NON-partitioned
// attribute, so outliers keep values[0] near the cut and their verdicts
// hinge on halo replicas.
TEST(ClusterTest, RoutedMatchesEngineMultiAttribute) {
  Workload workload(WindowType::kCount);
  const std::vector<OutlierQuery> queries = {OutlierQuery(2.5, 4, 100, 50),
                                             OutlierQuery(3.0, 3, 150, 50)};
  for (const OutlierQuery& q : queries) workload.AddQuery(q);
  ASSERT_EQ(workload.Validate(), "");

  Rng rng(/*seed=*/101);
  std::vector<Point> points;
  points.reserve(320);
  for (size_t i = 0; i < 320; ++i) {
    std::vector<double> values = {rng.Normal(0.0, 1.0), rng.Normal(0.0, 1.0),
                                  rng.Normal(0.0, 1.0)};
    if (rng.Bernoulli(0.05)) {
      values[rng.NextBelow(3)] += rng.Bernoulli(0.5) ? 8.0 : -8.0;
    }
    points.emplace_back(static_cast<Seq>(i), static_cast<Timestamp>(i),
                        std::move(values));
  }
  const std::vector<Batch> batches = SliceCount(points, 50);
  std::unique_ptr<OutlierDetector> detector = CreateDetector("sop", workload);
  const std::vector<QueryResult> expected =
      CollectResults(workload, points, detector.get());

  TestCluster tc;
  std::string error;
  ASSERT_TRUE(StartCluster(&tc, 2, "sop", WindowType::kCount, &error))
      << error;
  const std::vector<QueryResult> actual =
      RunRouted(tc.router->port(), queries, batches, "3-attr routed");
  tc.router->Stop();
  testing::ExpectSameResults(expected, actual, "3-attr routed");

  size_t outliers = 0;
  for (const QueryResult& r : expected) outliers += r.outliers.size();
  EXPECT_GT(outliers, 0u);  // the spikes must actually surface
  const RouterStats stats = tc.router->stats();
  EXPECT_GT(stats.halo_points, 0u);
  EXPECT_GT(stats.routed_points, stats.ingest_points);
  EXPECT_EQ(stats.worker_failures, 0u);
  EXPECT_FALSE(stats.degraded);
  for (size_t w = 0; w < tc.workers.size(); ++w) {
    EXPECT_TRUE(tc.workers[w]->stats().sharded) << "worker " << w;
  }
}

// A replacement router over a fleet an earlier router already claimed.
// The shard claim is worker-level state that outlives the connection, and
// the new router re-declares its config at its first routed batch: a
// MATCHING config is accepted as an idempotent re-send (serving resumes,
// zero protocol errors), a CONFLICTING one is refused per worker. The new
// router starts a fresh arrival numbering, so continuity is exactness
// modulo that renumbering: once every window clears the handover, the
// merged emissions equal the single-node run's with each outlier id
// shifted by the points the first router consumed. Time windows
// throughout — workers key windows on real timestamps, which survive the
// handover (a count deployment's translated time axis deliberately does
// not; see router.h).
TEST(ClusterTest, ShardConfigRehandshakeAfterRouterRestart) {
  Workload workload(WindowType::kTime);
  const std::vector<OutlierQuery> queries = TestQueries(true);
  for (const OutlierQuery& q : queries) workload.AddQuery(q);
  ASSERT_EQ(workload.Validate(), "");
  const std::vector<Point> points = GenPoints(240, true, /*seed=*/19);
  const std::vector<Batch> batches = Slice(workload, points);
  ASSERT_GT(batches.size(), 7u);
  std::unique_ptr<OutlierDetector> detector = CreateDetector("sop", workload);
  const std::vector<QueryResult> expected =
      CollectResults(workload, points, detector.get());

  std::string error;
  std::vector<std::unique_ptr<SopServer>> workers;
  RouterOptions ro;
  ro.window_type = WindowType::kTime;
  for (int i = 0; i < 2; ++i) {
    auto worker = std::make_unique<SopServer>(WorkerOptions("sop"));
    ASSERT_TRUE(worker->Start(&error)) << error;
    ro.workers.push_back({"127.0.0.1", worker->port()});
    workers.push_back(std::move(worker));
  }
  ro.partition = PartitionSpec::Uniform(-6.0, 6.0, 2);

  // Phase A: the first router serves the first half of the stream.
  const size_t handover = batches.size() / 2;
  int64_t handover_boundary = 0;
  Seq consumed_a = 0;  // points numbered by router A
  {
    SopRouter router_a(ro);
    ASSERT_TRUE(router_a.Start(&error)) << error;
    std::vector<Batch> first(batches.begin(),
                             batches.begin() + static_cast<int64_t>(handover));
    for (const Batch& b : first) {
      consumed_a += static_cast<Seq>(b.points.size());
      handover_boundary = b.boundary;
    }
    const std::vector<QueryResult> prefix =
        RunRouted(router_a.port(), queries, first, "pre-restart");
    router_a.Stop();
    EXPECT_EQ(router_a.stats().protocol_errors, 0u);
    std::vector<QueryResult> expected_prefix;
    for (const QueryResult& r : expected) {
      if (r.boundary <= handover_boundary) expected_prefix.push_back(r);
    }
    testing::ExpectSameResults(expected_prefix, prefix, "pre-restart");
  }

  // Phase B: a replacement router, same spec, same (still-claimed)
  // workers. Its first routed batch re-declares the shard config.
  SopRouter router_b(ro);
  ASSERT_TRUE(router_b.Start(&error)) << error;
  SopClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", router_b.port(), &error)) << error;
  std::map<int64_t, size_t> index_of;
  for (size_t i = 0; i < queries.size(); ++i) {
    const int64_t id = client.Subscribe(queries[i], &error);
    ASSERT_GT(id, 0) << error;
    index_of[id] = i;
  }
  struct TailEmission {
    QueryResult result;
    bool degraded = false;
  };
  std::vector<TailEmission> resumed;
  for (size_t bi = handover; bi < batches.size(); ++bi) {
    IngestAckMsg ack;
    ASSERT_TRUE(
        client.Ingest(batches[bi].boundary, batches[bi].points, &ack, &error))
        << "batch " << bi << ": " << error;
    // The re-declared config was accepted: the whole batch landed.
    EXPECT_EQ(ack.accepted, batches[bi].points.size()) << "batch " << bi;
    for (const EmissionMsg& e : client.TakeEmissions()) {
      ASSERT_TRUE(index_of.count(e.query_id) != 0);
      TailEmission te;
      te.result.query_index = index_of[e.query_id];
      te.result.boundary = e.boundary;
      te.result.outliers = e.outliers;
      te.degraded = e.degraded;
      resumed.push_back(std::move(te));
    }
  }
  EXPECT_EQ(router_b.stats().protocol_errors, 0u);
  for (size_t w = 0; w < workers.size(); ++w) {
    EXPECT_TRUE(workers[w]->stats().sharded) << "worker " << w;
    EXPECT_EQ(workers[w]->stats().num_shards, 2u) << "worker " << w;
  }

  // Clean tail: every window past the handover holds only points the new
  // router numbered, so emissions must be exact modulo the uniform id
  // shift. (During the handover the workers' windows still hold points
  // only the OLD router could translate — those emissions are honestly
  // degraded and not compared.)
  const int64_t clean = handover_boundary + 120;  // max window span
  std::vector<QueryResult> expected_tail;
  for (const QueryResult& r : expected) {
    if (r.boundary < clean) continue;
    QueryResult shifted = r;
    for (Seq& s : shifted.outliers) s -= consumed_a;
    expected_tail.push_back(std::move(shifted));
  }
  ASSERT_FALSE(expected_tail.empty());
  std::vector<QueryResult> actual_tail;
  for (const TailEmission& te : resumed) {
    if (te.result.boundary < clean) continue;
    EXPECT_FALSE(te.degraded) << "@" << te.result.boundary;
    actual_tail.push_back(te.result);
  }
  testing::ExpectSameResults(expected_tail, actual_tail, "post-restart tail");

  // Phase C: a router with DIFFERENT cuts against the claimed fleet. Each
  // worker refuses the conflicting declaration at its first routed batch.
  RouterOptions conflicting = ro;
  conflicting.partition = PartitionSpec::Uniform(-3.0, 3.0, 2);
  router_b.Stop();
  SopRouter router_c(conflicting);
  ASSERT_TRUE(router_c.Start(&error)) << error;
  SopClient probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", router_c.port(), &error)) << error;
  IngestAckMsg ack;
  std::vector<Point> tail_points = batches.back().points;
  ASSERT_TRUE(probe.Ingest(batches.back().boundary + 1000, tail_points, &ack,
                           &error))
      << error;
  EXPECT_GE(router_c.stats().protocol_errors, 2u);  // one refusal per worker
  probe.Close();
  router_c.Stop();
  client.Close();
  for (std::unique_ptr<SopServer>& w : workers) w->Stop();
}

// A worker killed mid-stream and restarted on the same port (with
// checkpoint_every_batches=1) is ridden out by the router's worker-client
// recovery: the routed emission stream still matches the single-node run
// exactly — no lost and no duplicated emissions — and the stream is never
// marked degraded.
TEST(ClusterTest, WorkerKillAndRestartKeepsMergeExact) {
  const Workload workload = [] {
    Workload w(WindowType::kCount);
    w.AddQuery(OutlierQuery(1.5, 4, 100, 50));
    w.AddQuery(OutlierQuery(2.0, 3, 150, 50));
    return w;
  }();
  ASSERT_EQ(workload.Validate(), "");
  const std::vector<OutlierQuery> queries = TestQueries(false);
  const std::vector<Point> points = GenPoints(400, false, /*seed=*/55);
  const std::vector<Batch> batches = SliceCount(points, 50);
  ASSERT_EQ(batches.size(), 8u);
  std::unique_ptr<OutlierDetector> detector =
      CreateDetector("sop", workload);
  const std::vector<QueryResult> expected =
      CollectResults(workload, points, detector.get());

  const std::string prefix = ::testing::TempDir() + "sop_cluster_kill_worker";
  for (int i = 0; i < 2; ++i) {  // stale checkpoints would resume old state
    std::remove((prefix + std::to_string(i) + ".checkpoint").c_str());
  }
  std::string error;
  TestCluster tc;
  ASSERT_TRUE(
      StartCluster(&tc, 2, "sop", WindowType::kCount, &error, prefix))
      << error;

  SopClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", tc.router->port(), &error))
      << error;
  std::map<int64_t, size_t> index_of;
  for (size_t i = 0; i < queries.size(); ++i) {
    const int64_t id = client.Subscribe(queries[i], &error);
    ASSERT_GT(id, 0) << error;
    index_of[id] = i;
  }

  const int victim = 1;
  const int victim_port = tc.workers[victim]->port();
  std::vector<QueryResult> actual;
  for (size_t bi = 0; bi < batches.size(); ++bi) {
    if (bi == batches.size() / 2) {
      // Crash the worker between batches, then bring it back on the same
      // port from its per-batch checkpoint. The router's next fan-out
      // triggers its client's bounded recovery against the restarted
      // worker: re-handshake, shard-config re-declare, re-subscribe from
      // the high-water mark, exactly-once resume.
      tc.workers[victim]->Kill();
      ServerOptions wo = WorkerOptions("sop");
      wo.port = victim_port;
      wo.checkpoint_path = prefix + std::to_string(victim) + ".checkpoint";
      wo.checkpoint_every_batches = 1;
      auto restarted = std::make_unique<SopServer>(wo);
      ASSERT_TRUE(restarted->Start(&error)) << "restart: " << error;
      ASSERT_TRUE(restarted->stats().resumed) << "no checkpoint restored";
      tc.workers[victim] = std::move(restarted);
    }
    IngestAckMsg ack;
    ASSERT_TRUE(
        client.Ingest(batches[bi].boundary, batches[bi].points, &ack, &error))
        << "batch " << bi << ": " << error;
    EXPECT_EQ(ack.accepted, batches[bi].points.size()) << "batch " << bi;
    for (const EmissionMsg& e : client.TakeEmissions()) {
      ASSERT_TRUE(index_of.count(e.query_id) != 0);
      EXPECT_FALSE(e.degraded) << "@" << e.boundary;
      QueryResult r;
      r.query_index = index_of[e.query_id];
      r.boundary = e.boundary;
      r.outliers = e.outliers;
      actual.push_back(std::move(r));
    }
  }
  testing::ExpectSameResults(expected, actual, "kill/restart");

  const RouterStats stats = tc.router->stats();
  EXPECT_GE(stats.worker_reconnects, 1u);
  EXPECT_EQ(stats.worker_failures, 0u);
  EXPECT_FALSE(stats.degraded);
}

// A worker that stays DOWN past its client's bounded recovery degrades the
// stream honestly — the failed batch still acks, its emissions carry
// degraded=true, and the down shard's verdicts are withheld rather than
// mistranslated — and once the worker returns from its checkpoint the
// router realigns the shard's local->global sequence map against the acked
// arrival counter (IngestAckMsg::next_seq): the degraded flag clears and
// every emission whose window has moved past the hole matches the
// single-node run exactly, global seqs included. Regression: a stale map
// used to keep translating with a silent shift after an outage, emitting
// wrong global seqs forever without ever flagging degraded.
TEST(ClusterTest, WorkerOutageDegradesThenRealignsExactly) {
  const Workload workload = [] {
    Workload w(WindowType::kCount);
    w.AddQuery(OutlierQuery(1.5, 4, 100, 50));
    w.AddQuery(OutlierQuery(2.0, 3, 150, 50));
    return w;
  }();
  ASSERT_EQ(workload.Validate(), "");
  const std::vector<OutlierQuery> queries = TestQueries(false);
  const std::vector<Point> points = GenPoints(800, false, /*seed=*/77);
  const std::vector<Batch> batches = SliceCount(points, 50);
  ASSERT_EQ(batches.size(), 16u);
  std::unique_ptr<OutlierDetector> detector =
      CreateDetector("sop", workload);
  const std::vector<QueryResult> expected =
      CollectResults(workload, points, detector.get());

  const std::string prefix = ::testing::TempDir() + "sop_cluster_outage";
  for (int i = 0; i < 2; ++i) {
    std::remove((prefix + std::to_string(i) + ".checkpoint").c_str());
  }
  // Tight recovery bounds: while the victim is down its client gives up in
  // milliseconds — this drives the degraded path, not the kill/restart
  // test's transparent ride-out.
  net::ReconnectOptions rec;
  rec.max_attempts = 3;
  rec.backoff_initial_ms = 1;
  rec.backoff_max_ms = 2;
  std::string error;
  TestCluster tc;
  ASSERT_TRUE(StartCluster(&tc, 2, "sop", WindowType::kCount, &error, prefix,
                           &rec))
      << error;

  SopClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", tc.router->port(), &error))
      << error;
  std::map<int64_t, size_t> index_of;
  for (size_t i = 0; i < queries.size(); ++i) {
    const int64_t id = client.Subscribe(queries[i], &error);
    ASSERT_GT(id, 0) << error;
    index_of[id] = i;
  }

  const int victim = 1;
  const int victim_port = tc.workers[victim]->port();
  const size_t down_bi = batches.size() / 2;  // routed into the outage
  // That batch's points [boundary - 50, boundary) never reach the victim.
  const int64_t hole_end = batches[down_bi].boundary;
  std::vector<QueryResult> actual;
  bool saw_degraded_hole = false;
  for (size_t bi = 0; bi < batches.size(); ++bi) {
    if (bi == down_bi) tc.workers[victim]->Kill();  // no restart yet
    if (bi == down_bi + 1) {
      // Back from the per-batch checkpoint on the same port; the next
      // fan-out recovers the router's client, and the recovered ack's
      // arrival counter realigns the shard's sequence map.
      ServerOptions wo = WorkerOptions("sop");
      wo.port = victim_port;
      wo.checkpoint_path = prefix + std::to_string(victim) + ".checkpoint";
      wo.checkpoint_every_batches = 1;
      auto restarted = std::make_unique<SopServer>(wo);
      ASSERT_TRUE(restarted->Start(&error)) << "restart: " << error;
      ASSERT_TRUE(restarted->stats().resumed) << "no checkpoint restored";
      tc.workers[victim] = std::move(restarted);
    }
    IngestAckMsg ack;
    ASSERT_TRUE(
        client.Ingest(batches[bi].boundary, batches[bi].points, &ack, &error))
        << "batch " << bi << ": " << error;
    // The stream keeps moving without the shard — the ack still covers the
    // whole batch — but the router says so while it lasts.
    EXPECT_EQ(ack.accepted, batches[bi].points.size()) << "batch " << bi;
    if (bi == down_bi) {
      EXPECT_TRUE(tc.router->stats().degraded);
    }
    for (const EmissionMsg& e : client.TakeEmissions()) {
      ASSERT_TRUE(index_of.count(e.query_id) != 0);
      if (e.boundary == hole_end) {
        // The down shard's verdicts are missing by design; flagged.
        EXPECT_TRUE(e.degraded) << "@" << e.boundary;
        saw_degraded_hole = true;
        continue;
      }
      if (e.boundary < hole_end) {
        EXPECT_FALSE(e.degraded) << "@" << e.boundary;
      }
      QueryResult r;
      r.query_index = index_of[e.query_id];
      r.boundary = e.boundary;
      r.outliers = e.outliers;
      actual.push_back(std::move(r));
    }
  }
  EXPECT_TRUE(saw_degraded_hole);

  // Exactness before the outage and after every window clears the hole
  // (max window 150; boundaries in between see a genuinely incomplete
  // window on the victim and are not compared).
  const int64_t clean = hole_end + 150;
  const auto slice = [](const std::vector<QueryResult>& in, int64_t lo,
                        int64_t hi) {
    std::vector<QueryResult> out;
    for (const QueryResult& r : in) {
      if (r.boundary >= lo && r.boundary < hi) out.push_back(r);
    }
    return out;
  };
  testing::ExpectSameResults(slice(expected, 0, hole_end),
                             slice(actual, 0, hole_end), "outage prefix");
  const std::vector<QueryResult> expected_tail =
      slice(expected, clean, INT64_MAX);
  testing::ExpectSameResults(expected_tail, slice(actual, clean, INT64_MAX),
                             "outage tail");
  // The tail must prove something: post-heal emissions carry outliers
  // whose GLOBAL seqs came through the realigned map.
  size_t tail_outliers = 0;
  for (const QueryResult& r : expected_tail) {
    tail_outliers += r.outliers.size();
  }
  EXPECT_GT(tail_outliers, 0u);

  const RouterStats stats = tc.router->stats();
  EXPECT_GE(stats.worker_failures, 1u);
  EXPECT_GE(stats.worker_reconnects, 1u);
  EXPECT_FALSE(stats.degraded);  // current health, not a sticky latch
}

// Stop() while batches are mid-flight must drain and return: a dispatched
// fan-out job that got dropped on shutdown would strand its fork-join and
// leave the route loop (and Stop()) waiting forever. Regression for
// exactly that deadlock.
TEST(ClusterTest, StopUnderActiveIngestDrains) {
  TestCluster tc;
  std::string error;
  ASSERT_TRUE(StartCluster(&tc, 2, "sop", WindowType::kCount, &error))
      << error;

  SopClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", tc.router->port(), &error))
      << error;
  ASSERT_GT(client.Subscribe(OutlierQuery(1.5, 4, 100, 50), &error), 0)
      << error;
  const std::vector<Point> points = GenPoints(10000, false, /*seed=*/21);
  const std::vector<Batch> batches = SliceCount(points, 50);

  std::thread ingester([&] {
    std::string ierror;
    for (const Batch& b : batches) {
      IngestAckMsg ack;
      // Stop() closes the connection mid-stream; the failed call is the
      // expected way out.
      if (!client.Ingest(b.boundary, b.points, &ack, &ierror)) break;
    }
  });
  // Deterministic mid-flight point: at least one batch dispatched, many
  // more still queued behind it (no fixed sleep — see EXPERIMENTS.md on
  // the wall-clock-sleep sweep).
  ASSERT_TRUE(WaitUntil(
      [&] { return tc.router->stats().ingest_batches >= 1; }));
  tc.router->Stop();
  ingester.join();
  EXPECT_GT(tc.router->stats().ingest_batches, 0u);
}

// A router's counts live in its stats() alone, and each worker's in its
// own: with obs on, a routed run leaves no cluster/route/*, cluster/merge/*
// or net/server/* counter in the registry the whole process shares. The
// timings that no struct holds still record, one per batch.
TEST(ClusterTest, RoutedCountsHaveOneSourceTheirStats) {
  obs::SetEnabled(true);
  obs::MetricsRegistry::Global().Reset();
  TestCluster tc;
  std::string error;
  ASSERT_TRUE(StartCluster(&tc, 2, "sop", WindowType::kCount, &error))
      << error;
  Workload workload(WindowType::kCount);
  const std::vector<OutlierQuery> queries = TestQueries(false);
  for (const OutlierQuery& q : queries) workload.AddQuery(q);
  const std::vector<Batch> batches =
      Slice(workload, GenPoints(200, false, /*seed=*/13));
  RunRouted(tc.router->port(), queries, batches, "routed counts");
  tc.router->Stop();
  obs::SetEnabled(false);

  const obs::Snapshot snap = obs::MetricsRegistry::Global().TakeSnapshot();
  for (const auto& counter : snap.counters) {
    for (const char* prefix : {"cluster/route/", "cluster/merge/",
                               "net/server/"}) {
      EXPECT_NE(counter.first.rfind(prefix, 0), 0u) << counter.first;
    }
  }
  const RouterStats stats = tc.router->stats();
  EXPECT_EQ(stats.ingest_batches, batches.size());
  EXPECT_EQ(stats.merged_boundaries, batches.size());
  EXPECT_EQ(stats.subscribes, queries.size());
  EXPECT_EQ(stats.unsubscribes, queries.size());
  EXPECT_GT(stats.merged_emissions, 0u);
  if (obs::kCompiledIn) {
    for (const char* name : {"cluster/route/batch_ms",
                             "cluster/merge/merge_ms"}) {
      ASSERT_NE(snap.histograms.find(name), snap.histograms.end()) << name;
      EXPECT_EQ(snap.histograms.at(name).count, batches.size()) << name;
    }
  }
}

// --- admission and refusal paths -----------------------------------------

// The router's front handshake refuses a hello from a different protocol
// version with a diagnostic — the same contract as the single server —
// instead of letting later frames fail to decode mysteriously.
TEST(ClusterTest, HelloVersionMismatchIsRefused) {
  TestCluster tc;
  std::string error;
  ASSERT_TRUE(StartCluster(&tc, 2, "sop", WindowType::kCount, &error))
      << error;

  net::HelloMsg hello;
  hello.protocol_version = net::kProtocolVersion - 1;
  net::Socket raw = net::ConnectTcp("127.0.0.1", tc.router->port(), &error);
  ASSERT_TRUE(raw.valid()) << error;
  ASSERT_TRUE(net::SendAll(raw, net::EncodeHello(hello), &error)) << error;
  ASSERT_TRUE(WaitUntil(
      [&] { return tc.router->stats().protocol_errors >= 1; }));

  // A current-version client on the same router is untouched.
  SopClient ok;
  ASSERT_TRUE(ok.Connect("127.0.0.1", tc.router->port(), &error)) << error;
  EXPECT_EQ(ok.server_info().protocol_version, net::kProtocolVersion);
}

// Once the first batch freezes the halo, a subscribe whose radius exceeds
// it is refused with a diagnostic: serving it would silently miss
// neighbors across region edges.
TEST(ClusterTest, SubscribeBeyondFrozenHaloIsRefused) {
  TestCluster tc;
  std::string error;
  ASSERT_TRUE(StartCluster(&tc, 2, "sop", WindowType::kCount, &error))
      << error;

  SopClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", tc.router->port(), &error))
      << error;
  const int64_t id =
      client.Subscribe(OutlierQuery(1.5, 4, 100, 50), &error);
  ASSERT_GT(id, 0) << error;

  // First batch freezes the halo at the live basis r_max.
  const std::vector<Point> points = GenPoints(50, false, /*seed=*/3);
  IngestAckMsg ack;
  ASSERT_TRUE(client.Ingest(50, points, &ack, &error)) << error;

  const int64_t refused =
      client.Subscribe(OutlierQuery(100.0, 4, 100, 50), &error);
  EXPECT_EQ(refused, 0);
  EXPECT_NE(error.find("halo"), std::string::npos) << error;

  // A radius inside the frozen halo is still admissible.
  const int64_t ok = client.Subscribe(OutlierQuery(1.0, 2, 100, 50), &error);
  EXPECT_GT(ok, 0) << error;

  const RouterStats stats = tc.router->stats();
  EXPECT_EQ(stats.refused_subscribes, 1u);
  EXPECT_EQ(stats.subscribes, 2u);
}

// Router-side refusals mirror the single server: stale boundaries are
// bounced without advancing the stream, and malformed queries never reach
// a worker.
TEST(ClusterTest, StaleBoundaryAndBadQueryAreRefused) {
  TestCluster tc;
  std::string error;
  ASSERT_TRUE(StartCluster(&tc, 2, "sop", WindowType::kCount, &error))
      << error;

  SopClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", tc.router->port(), &error))
      << error;
  const int64_t bad = client.Subscribe(OutlierQuery(-1.0, 0, 0, 0), &error);
  EXPECT_EQ(bad, 0);

  const int64_t id = client.Subscribe(OutlierQuery(1.5, 4, 100, 50), &error);
  ASSERT_GT(id, 0) << error;
  const std::vector<Point> points = GenPoints(100, false, /*seed=*/9);
  std::vector<Point> first(points.begin(), points.begin() + 50);
  IngestAckMsg ack;
  ASSERT_TRUE(client.Ingest(50, first, &ack, &error)) << error;
  EXPECT_EQ(ack.accepted, 50u);

  // Same boundary again: refused, accepted == 0, diagnostic pushed.
  ASSERT_TRUE(client.Ingest(50, first, &ack, &error)) << error;
  EXPECT_EQ(ack.accepted, 0u);
  EXPECT_FALSE(client.TakeErrors().empty());

  const RouterStats stats = tc.router->stats();
  EXPECT_EQ(stats.last_boundary, 50);
  EXPECT_GE(stats.protocol_errors, 0u);

  // Health probe through the router's front.
  net::PongMsg pong;
  ASSERT_TRUE(client.Ping(&pong, &error)) << error;
  EXPECT_EQ(static_cast<net::ServerRole>(pong.role), net::ServerRole::kPrimary);
  EXPECT_EQ(pong.last_boundary, 50);
  EXPECT_GE(pong.active_connections, 1u);
}

}  // namespace
}  // namespace cluster
}  // namespace sop
