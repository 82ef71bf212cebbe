// Deterministic simulation suite (DESIGN.md Sec. 18): SopServer,
// SopClient and SopRouter run unmodified on sop::sim's in-memory
// transport and virtual clock, and the headline serving invariants are
// re-run under seeded fault schedules:
//
//   * loopback equivalence on the simulated transport, both window types,
//     plain and with seeded latency spikes; a handshake cut fails only the
//     client it hits,
//   * failover == uninterrupted run under seeded latency spikes, with the
//     kill point drawn from the seed,
//   * exactly-once resume across a mid-frame connection cut at a seeded
//     byte offset, in either direction,
//   * routed == single-node across a seeded worker-connection cut,
//   * worker partition -> honest degradation -> exact sequence-map
//     realignment after heal (the outage contract with no restarts: the
//     network died, not the worker),
//   * a known-bad schedule (duplicated ingest frame) replays
//     BIT-IDENTICALLY from its seed — same divergence, same transcript,
//   * the idle-timeout and replication-ack-timeout paths driven purely by
//     virtual time.
//
// There are ZERO wall-clock sleeps in this file: waits either poll with
// yields (wall time bounds liveness only) or advance the virtual clock.
//
// Every seeded test announces its seed unconditionally; replay a failure
// with SOP_FUZZ_SEED=<seed> SOP_SIM_SEEDS=1. SOP_SIM_SEEDS widens the
// sweeps, SOP_FUZZ_MS keeps them running on a time budget, and
// SimSoak.SeedSweep (gated on SOP_SOAK; see tools/soak_sim.sh) runs
// hundreds of seeds and records failing ones as artifacts.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
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
#include "sop/sim/sim.h"
#include "sop/stream/window.h"
#include "test_util.h"

namespace sop {
namespace {

using testing::CollectResults;

using cluster::PartitionSpec;
using cluster::RouterOptions;
using cluster::RouterStats;
using cluster::SopRouter;
using net::IngestAckMsg;
using net::ReconnectOptions;
using net::ServerOptions;
using net::ServerRole;
using net::SopClient;
using net::SopServer;
using sim::FaultRule;
using sim::ScopedSim;
using sim::SimNet;

/// Polls `pred` until true, yielding between polls — never sleeping. Wall
/// time bounds liveness only; all simulated waiting goes through the
/// virtual clock.
bool YieldUntil(const std::function<bool()>& pred, int64_t wall_ms = 20000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(wall_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// SOP_SIM_SEEDS overrides a sweep's seed-count floor.
int64_t SimSeedsOr(int64_t dflt) {
  const char* env = std::getenv("SOP_SIM_SEEDS");
  return env != nullptr ? std::atoll(env) : dflt;
}

/// Runs `drill` over `min_seeds` consecutive seeds from the announced
/// base (then keeps going while the SOP_FUZZ_MS budget lasts), stopping
/// at the first failing seed so the trace pins it.
void SweepSeeds(const char* label, int64_t min_seeds,
                const std::function<void(uint64_t)>& drill) {
  const testing::FuzzParams fuzz = testing::AnnouncedFuzzParams(label, 0);
  const int64_t floor_seeds = SimSeedsOr(min_seeds);
  const auto start = std::chrono::steady_clock::now();
  for (int64_t i = 0;; ++i) {
    if (i >= floor_seeds) {
      const int64_t elapsed_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      if (elapsed_ms >= fuzz.budget_ms) break;
    }
    const uint64_t seed = fuzz.seed + static_cast<uint64_t>(i);
    SCOPED_TRACE(std::string(label) + ": replay with SOP_FUZZ_SEED=" +
                 std::to_string(seed) + " SOP_SIM_SEEDS=1");
    drill(seed);
    if (::testing::Test::HasFailure()) {
      std::fprintf(stderr, "[ sim ] %s FAILING seed=%llu\n", label,
                   static_cast<unsigned long long>(seed));
      return;
    }
  }
}

/// Same stream shape as ha_test/cluster_test: a unit-variance cluster
/// with ~5% spikes at +-8.
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

std::vector<OutlierQuery> TestQueries(bool time_windows) {
  if (time_windows) {
    return {OutlierQuery(1.5, 4, 80, 20), OutlierQuery(2.0, 3, 120, 30)};
  }
  return {OutlierQuery(1.5, 4, 100, 50), OutlierQuery(2.0, 3, 150, 50)};
}

/// Sorts results by (boundary, query index) — resume replay is per-query,
/// so interleaving at a recovery seam can legally differ from the live
/// order (see ha_test.cc for the full argument).
void Canonicalize(std::vector<QueryResult>* results) {
  std::stable_sort(results->begin(), results->end(),
                   [](const QueryResult& a, const QueryResult& b) {
                     if (a.boundary != b.boundary) {
                       return a.boundary < b.boundary;
                     }
                     return a.query_index < b.query_index;
                   });
}

void ExpectNoDuplicates(const std::vector<QueryResult>& results,
                        const std::string& label) {
  std::set<std::pair<size_t, int64_t>> seen;
  for (const QueryResult& r : results) {
    EXPECT_TRUE(seen.insert({r.query_index, r.boundary}).second)
        << label << ": duplicate emission q" << r.query_index << "@"
        << r.boundary;
  }
}

std::vector<QueryResult> Oracle(const Workload& workload,
                                const std::vector<Point>& points) {
  std::unique_ptr<OutlierDetector> detector = CreateDetector("sop", workload);
  return CollectResults(workload, points, detector.get());
}

// --- loopback equivalence on the simulated transport ---------------------

// The base case: with no fault rules, the sim transport is just a wire —
// a subscribe-ingest-collect loop over it matches the engine exactly. The
// second pass delays a seeded fifth of all segments in both directions;
// delays only reorder time, never bytes, so the run must not change.
TEST(SimTest, LoopbackMatchesEngineBothWindowTypes) {
  for (const bool delayed : {false, true}) {
    for (const bool time_windows : {false, true}) {
      const std::string label = std::string("sim loopback/") +
                                (time_windows ? "time" : "count") +
                                (delayed ? "/delayed" : "");
      Workload workload(time_windows ? WindowType::kTime
                                     : WindowType::kCount);
      const std::vector<OutlierQuery> queries = TestQueries(time_windows);
      for (const OutlierQuery& q : queries) workload.AddQuery(q);
      ASSERT_EQ(workload.Validate(), "");
      const std::vector<Point> points =
          GenPoints(time_windows ? 240 : 320, time_windows, /*seed=*/3);
      const std::vector<Batch> batches = Slice(workload, points);
      const std::vector<QueryResult> expected = Oracle(workload, points);

      SimNet sim(/*seed=*/1);
      ScopedSim armed(&sim);
      if (delayed) {
        FaultRule delay;
        delay.action = FaultRule::Action::kDelay;
        delay.rate = 0.2;
        delay.delay_us = 2000;
        sim.AddRule(delay);
      }
      ServerOptions options;
      options.window_type = workload.window_type();
      SopServer server(options);
      std::string error;
      ASSERT_TRUE(server.Start(&error)) << label << ": " << error;

      SopClient client;
      ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error))
          << label << ": " << error;
      std::map<int64_t, size_t> index_of;
      for (size_t i = 0; i < queries.size(); ++i) {
        const int64_t id = client.Subscribe(queries[i], &error);
        ASSERT_GT(id, 0) << label << ": " << error;
        index_of[id] = i;
      }
      std::vector<QueryResult> actual;
      for (const Batch& b : batches) {
        IngestAckMsg ack;
        ASSERT_TRUE(client.Ingest(b.boundary, b.points, &ack, &error))
            << label << ": " << error;
        EXPECT_EQ(ack.accepted, b.points.size()) << label;
        for (const net::EmissionMsg& e : client.TakeEmissions()) {
          ASSERT_TRUE(index_of.count(e.query_id) != 0) << label;
          EXPECT_FALSE(e.degraded) << label << " @" << e.boundary;
          QueryResult r;
          r.query_index = index_of[e.query_id];
          r.boundary = e.boundary;
          r.outliers = e.outliers;
          actual.push_back(std::move(r));
        }
      }
      client.Close();
      server.Stop();
      testing::ExpectSameResults(expected, actual, label);
      EXPECT_EQ(sim.stats().refused_connects, 0u) << label;
      EXPECT_EQ(server.stats().protocol_errors, 0u) << label;
      if (delayed) {
        EXPECT_GT(sim.stats().delayed, 0u) << label;
      }
    }
  }
}

// A connection cut in the middle of the client's hello fails that
// client's Connect with an error, and only that client: once the rule is
// cleared, a fresh client connects and subscribes on the same server.
TEST(SimTest, CutHandshakeFailsOnlyThatClient) {
  SimNet sim(/*seed=*/5);
  ScopedSim armed(&sim);
  SopServer server{ServerOptions()};
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  FaultRule cut;
  cut.action = FaultRule::Action::kTruncate;
  cut.dst_port = server.port();
  cut.direction = +1;
  cut.truncate_at = 3;
  cut.max_applications = 1;
  sim.AddRule(cut);
  {
    SopClient client;
    EXPECT_FALSE(client.Connect("127.0.0.1", server.port(), &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(client.connected());
  }
  EXPECT_EQ(sim.stats().truncated, 1u);

  sim.ClearRules();
  SopClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  EXPECT_GT(client.Subscribe(OutlierQuery(1.0, 2, 100, 50), &error), 0)
      << error;
  client.Close();
  server.Stop();
}

// --- failover equivalence under seeded schedules --------------------------

// One failover drill on the sim: primary replicating to a hot standby, a
// reconnecting client, the primary killed before a seed-chosen batch,
// seeded latency spikes on every channel. The delivered sequence must
// equal an uninterrupted run's for every seed.
void FailoverDrill(uint64_t seed) {
  Workload workload(WindowType::kCount);
  const std::vector<OutlierQuery> queries = TestQueries(false);
  for (const OutlierQuery& q : queries) workload.AddQuery(q);
  const std::vector<Point> points = GenPoints(320, false, /*seed=*/11);
  const std::vector<Batch> batches = Slice(workload, points);
  ASSERT_GT(batches.size(), 3u);
  std::vector<QueryResult> expected = Oracle(workload, points);

  SimNet sim(seed);
  ScopedSim armed(&sim);
  Rng rng(seed);
  // Latency spikes everywhere: a quarter of all segments, anywhere in the
  // fabric (client<->primary and the replication chain), arrive up to
  // ~20 simulated ms late. Readers starved behind a spike advance the
  // clock to the release themselves, so no driver pumping is needed.
  FaultRule delay;
  delay.action = FaultRule::Action::kDelay;
  delay.rate = 0.25;
  delay.delay_us = 500 + static_cast<int64_t>(rng.NextBelow(20000));
  sim.AddRule(delay);
  const size_t kill_at =
      1 + static_cast<size_t>(rng.NextBelow(
              static_cast<uint64_t>(batches.size()) - 1));

  std::string error;
  ServerOptions standby_options;
  standby_options.standby = true;
  standby_options.promote_on_loss = true;
  SopServer standby(standby_options);
  ASSERT_TRUE(standby.Start(&error)) << error;

  ServerOptions primary_options;
  primary_options.replicate_host = "127.0.0.1";
  primary_options.replicate_port = standby.port();
  SopServer primary(primary_options);
  ASSERT_TRUE(primary.Start(&error)) << error;

  SopClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", primary.port(), &error)) << error;
  ReconnectOptions ropt;
  ropt.endpoints = {{"127.0.0.1", primary.port()},
                    {"127.0.0.1", standby.port()}};
  // Virtual backoffs cost no wall time but also buy the standby none:
  // promotion happens on real threads, so the recovery loop must spin
  // (yielding) until it does — buy attempts instead of backoff.
  ropt.max_attempts = 200000;
  ropt.backoff_initial_ms = 1;
  ropt.backoff_max_ms = 1;
  ropt.ingest_replay = batches.size() + 1;
  client.EnableReconnect(ropt);

  std::map<int64_t, size_t> index_of;
  for (size_t i = 0; i < queries.size(); ++i) {
    const int64_t id = client.Subscribe(queries[i], &error);
    ASSERT_GT(id, 0) << error;
    index_of[id] = i;
  }
  std::vector<QueryResult> actual;
  for (size_t i = 0; i < batches.size(); ++i) {
    if (i == kill_at) {
      // Replication is asynchronous to client acks: kill only once the
      // standby has applied everything acked so far, or (under CPU
      // contention) the repl thread may never have shipped a frame — and
      // a standby that never saw a replication connection has no loss to
      // promote on.
      ASSERT_TRUE(YieldUntil([&] {
        return standby.stats().last_boundary >= batches[i - 1].boundary;
      })) << "standby never caught up to batch " << (i - 1);
      primary.Kill();
    }
    IngestAckMsg ack;
    ASSERT_TRUE(
        client.Ingest(batches[i].boundary, batches[i].points, &ack, &error))
        << "batch " << i << ": " << error;
    EXPECT_EQ(ack.accepted, batches[i].points.size()) << "batch " << i;
    for (const net::EmissionMsg& e : client.TakeEmissions()) {
      ASSERT_TRUE(index_of.count(e.query_id) != 0);
      QueryResult r;
      r.query_index = index_of[e.query_id];
      r.boundary = e.boundary;
      r.outliers = e.outliers;
      actual.push_back(std::move(r));
    }
  }
  EXPECT_GE(client.reconnects(), 1u);
  EXPECT_EQ(standby.role(), ServerRole::kPrimary);
  EXPECT_EQ(standby.stats().promotions, 1u);
  client.Close();
  standby.Stop();

  ExpectNoDuplicates(actual, "sim failover");
  Canonicalize(&expected);
  Canonicalize(&actual);
  testing::ExpectSameResults(expected, actual, "sim failover");
}

TEST(SimTest, FailoverMatchesUninterruptedRunManySeeds) {
  SweepSeeds("sim failover", /*min_seeds=*/3, FailoverDrill);
}

// --- exactly-once resume across a scheduled cut ---------------------------

// A single server, a reconnecting client, and one mid-frame connection
// cut at a seeded byte offset in a seeded direction: the client must ride
// it out with exactly-once delivery — resume replay fills what the cut
// swallowed, high-water dedup drops what it duplicated.
void ExactlyOnceCutDrill(uint64_t seed) {
  Workload workload(WindowType::kCount);
  const std::vector<OutlierQuery> queries = TestQueries(false);
  for (const OutlierQuery& q : queries) workload.AddQuery(q);
  const std::vector<Point> points = GenPoints(320, false, /*seed=*/17);
  const std::vector<Batch> batches = Slice(workload, points);
  std::vector<QueryResult> expected = Oracle(workload, points);

  SimNet sim(seed);
  ScopedSim armed(&sim);
  std::string error;
  ServerOptions options;
  SopServer server(options);
  ASSERT_TRUE(server.Start(&error)) << error;

  // The schedule: one truncation cut, skipping the 3-segment handshake
  // (hello + two subscribes and their acks) so it always lands in the
  // ingest/emission era of a channel that still has traffic coming.
  Rng rng(seed);
  FaultRule cut;
  cut.action = FaultRule::Action::kTruncate;
  cut.dst_port = server.port();
  cut.direction = rng.Bernoulli(0.5) ? +1 : -1;
  cut.skip_segments = 3 + rng.NextBelow(5);
  cut.truncate_at = static_cast<size_t>(rng.NextBelow(96));
  cut.max_applications = 1;
  sim.AddRule(cut);

  SopClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  ReconnectOptions ropt;
  ropt.endpoints = {{"127.0.0.1", server.port()}};
  ropt.max_attempts = 1000;
  ropt.backoff_initial_ms = 1;
  ropt.backoff_max_ms = 1;
  ropt.ingest_replay = batches.size() + 1;
  client.EnableReconnect(ropt);

  std::map<int64_t, size_t> index_of;
  for (size_t i = 0; i < queries.size(); ++i) {
    const int64_t id = client.Subscribe(queries[i], &error);
    ASSERT_GT(id, 0) << error;
    index_of[id] = i;
  }
  std::vector<QueryResult> actual;
  for (const Batch& b : batches) {
    IngestAckMsg ack;
    ASSERT_TRUE(client.Ingest(b.boundary, b.points, &ack, &error))
        << "batch @" << b.boundary << ": " << error;
    EXPECT_EQ(ack.accepted, b.points.size()) << "@" << b.boundary;
    for (const net::EmissionMsg& e : client.TakeEmissions()) {
      ASSERT_TRUE(index_of.count(e.query_id) != 0);
      QueryResult r;
      r.query_index = index_of[e.query_id];
      r.boundary = e.boundary;
      r.outliers = e.outliers;
      actual.push_back(std::move(r));
    }
  }
  EXPECT_EQ(sim.stats().truncated, 1u) << "the cut never fired";
  EXPECT_GE(client.reconnects(), 1u);
  client.Close();
  server.Stop();

  ExpectNoDuplicates(actual, "sim cut");
  Canonicalize(&expected);
  Canonicalize(&actual);
  testing::ExpectSameResults(expected, actual, "sim cut");
}

TEST(SimTest, ExactlyOnceResumeAcrossScheduledCut) {
  SweepSeeds("sim cut", /*min_seeds=*/4, ExactlyOnceCutDrill);
}

// --- routed equivalence across a scheduled worker cut ---------------------

// The cluster plane on the sim: a seeded truncation cut on one worker's
// connection, transparent recovery by the router's worker client, and the
// merged stream must still equal the single-node run — merge-exact, not
// just eventually consistent.
void RoutedCutDrill(uint64_t seed) {
  Workload workload(WindowType::kCount);
  const std::vector<OutlierQuery> queries = TestQueries(false);
  for (const OutlierQuery& q : queries) workload.AddQuery(q);
  const std::vector<Point> points = GenPoints(320, false, /*seed=*/23);
  const std::vector<Batch> batches = Slice(workload, points);
  const std::vector<QueryResult> expected = Oracle(workload, points);

  SimNet sim(seed);
  ScopedSim armed(&sim);
  std::string error;
  std::vector<std::unique_ptr<SopServer>> workers;
  RouterOptions ro;
  ro.window_type = WindowType::kCount;
  ro.worker_reconnect.max_attempts = 1000;
  ro.worker_reconnect.backoff_initial_ms = 1;
  ro.worker_reconnect.backoff_max_ms = 1;
  for (int i = 0; i < 2; ++i) {
    ServerOptions wo;
    wo.window_type = WindowType::kTime;  // workers always serve time
    wo.history_window = 1 << 14;
    auto worker = std::make_unique<SopServer>(wo);
    ASSERT_TRUE(worker->Start(&error)) << error;
    ro.workers.push_back({"127.0.0.1", worker->port()});
    workers.push_back(std::move(worker));
  }
  ro.partition = PartitionSpec::Uniform(-6.0, 6.0, 2);
  SopRouter router(ro);
  ASSERT_TRUE(router.Start(&error)) << error;

  // One cut on a seed-chosen worker channel. Skipping 4 segments clears
  // hello + subscribes + shard config, so the cut lands in the batch era
  // (a 6-batch run gives every channel 10+ segments).
  Rng rng(seed);
  const size_t victim = static_cast<size_t>(rng.NextBelow(2));
  FaultRule cut;
  cut.action = FaultRule::Action::kTruncate;
  cut.dst_port = workers[victim]->port();
  cut.direction = rng.Bernoulli(0.5) ? +1 : -1;
  cut.skip_segments = 4 + rng.NextBelow(5);
  cut.truncate_at = static_cast<size_t>(rng.NextBelow(160));
  cut.max_applications = 1;
  sim.AddRule(cut);

  SopClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", router.port(), &error)) << error;
  std::map<int64_t, size_t> index_of;
  for (size_t i = 0; i < queries.size(); ++i) {
    const int64_t id = client.Subscribe(queries[i], &error);
    ASSERT_GT(id, 0) << error;
    index_of[id] = i;
  }
  std::vector<QueryResult> actual;
  for (const Batch& b : batches) {
    IngestAckMsg ack;
    ASSERT_TRUE(client.Ingest(b.boundary, b.points, &ack, &error))
        << "batch @" << b.boundary << ": " << error;
    EXPECT_EQ(ack.accepted, b.points.size()) << "@" << b.boundary;
    for (const net::EmissionMsg& e : client.TakeEmissions()) {
      ASSERT_TRUE(index_of.count(e.query_id) != 0);
      EXPECT_FALSE(e.degraded) << "@" << e.boundary;
      QueryResult r;
      r.query_index = index_of[e.query_id];
      r.boundary = e.boundary;
      r.outliers = e.outliers;
      actual.push_back(std::move(r));
    }
  }
  client.Close();
  router.Stop();
  for (std::unique_ptr<SopServer>& w : workers) w->Stop();

  EXPECT_EQ(sim.stats().truncated, 1u) << "the cut never fired";
  const RouterStats stats = router.stats();
  EXPECT_GE(stats.worker_reconnects, 1u);
  EXPECT_EQ(stats.worker_failures, 0u);
  EXPECT_FALSE(stats.degraded);
  testing::ExpectSameResults(expected, actual, "sim routed cut");
}

TEST(SimTest, RoutedMatchesEngineUnderScheduledCuts) {
  SweepSeeds("sim routed cut", /*min_seeds=*/3, RoutedCutDrill);
}

// --- worker partition: degrade honestly, realign exactly ------------------

// The outage contract, network-death edition: the worker stays up but its
// port is partitioned and its connections cut, so the router's bounded
// recovery fails and the stream degrades honestly; after Heal the next
// fan-out reconnects, and the recovered ack's arrival counter
// (IngestAckMsg::next_seq) realigns the shard's local->global sequence
// map exactly — emissions past the hole match the single-node run,
// global seqs included. Unlike cluster_test's kill/restart variant, no
// process dies and no checkpoint is involved: this isolates the seq-map
// realignment to pure network faults.
TEST(SimTest, WorkerPartitionDegradesThenRealignsExactly) {
  Workload workload(WindowType::kCount);
  const std::vector<OutlierQuery> queries = TestQueries(false);
  for (const OutlierQuery& q : queries) workload.AddQuery(q);
  ASSERT_EQ(workload.Validate(), "");
  const std::vector<Point> points = GenPoints(800, false, /*seed=*/77);
  const std::vector<Batch> batches = SliceCount(points, 50);
  ASSERT_EQ(batches.size(), 16u);
  const std::vector<QueryResult> expected = Oracle(workload, points);

  SimNet sim(/*seed=*/5);
  ScopedSim armed(&sim);
  std::string error;
  std::vector<std::unique_ptr<SopServer>> workers;
  RouterOptions ro;
  ro.window_type = WindowType::kCount;
  // Tight recovery bounds: while the victim is unreachable its client
  // gives up in (virtual) milliseconds — this drives the degraded path.
  ro.worker_reconnect.max_attempts = 3;
  ro.worker_reconnect.backoff_initial_ms = 1;
  ro.worker_reconnect.backoff_max_ms = 2;
  for (int i = 0; i < 2; ++i) {
    ServerOptions wo;
    wo.window_type = WindowType::kTime;
    wo.history_window = 1 << 14;
    auto worker = std::make_unique<SopServer>(wo);
    ASSERT_TRUE(worker->Start(&error)) << error;
    ro.workers.push_back({"127.0.0.1", worker->port()});
    workers.push_back(std::move(worker));
  }
  ro.partition = PartitionSpec::Uniform(-6.0, 6.0, 2);
  SopRouter router(ro);
  ASSERT_TRUE(router.Start(&error)) << error;

  SopClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", router.port(), &error)) << error;
  std::map<int64_t, size_t> index_of;
  for (size_t i = 0; i < queries.size(); ++i) {
    const int64_t id = client.Subscribe(queries[i], &error);
    ASSERT_GT(id, 0) << error;
    index_of[id] = i;
  }

  const int victim_port = workers[1]->port();
  const size_t down_bi = batches.size() / 2;  // routed into the outage
  const int64_t hole_end = batches[down_bi].boundary;
  std::vector<QueryResult> actual;
  bool saw_degraded_hole = false;
  for (size_t bi = 0; bi < batches.size(); ++bi) {
    if (bi == down_bi) {
      // Full network outage for the victim: partition first (reconnects
      // refused), then cut (peers fail fast instead of blocking on
      // swallowed segments).
      sim.Partition(victim_port);
      sim.CutConnections(victim_port);
    }
    if (bi == down_bi + 1) sim.Heal(victim_port);
    IngestAckMsg ack;
    ASSERT_TRUE(
        client.Ingest(batches[bi].boundary, batches[bi].points, &ack, &error))
        << "batch " << bi << ": " << error;
    EXPECT_EQ(ack.accepted, batches[bi].points.size()) << "batch " << bi;
    if (bi == down_bi) {
      EXPECT_TRUE(router.stats().degraded);
    }
    for (const net::EmissionMsg& e : client.TakeEmissions()) {
      ASSERT_TRUE(index_of.count(e.query_id) != 0);
      if (e.boundary == hole_end) {
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

  // Exact before the outage, and exact again once every window clears the
  // hole (max window 150); in between the victim's window is genuinely
  // incomplete and is not compared.
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
                             slice(actual, 0, hole_end), "partition prefix");
  const std::vector<QueryResult> expected_tail =
      slice(expected, clean, INT64_MAX);
  testing::ExpectSameResults(expected_tail, slice(actual, clean, INT64_MAX),
                             "partition tail");
  size_t tail_outliers = 0;
  for (const QueryResult& r : expected_tail) {
    tail_outliers += r.outliers.size();
  }
  EXPECT_GT(tail_outliers, 0u);

  const RouterStats stats = router.stats();
  EXPECT_GE(stats.worker_failures, 1u);
  EXPECT_GE(stats.worker_reconnects, 1u);
  EXPECT_FALSE(stats.degraded);
  client.Close();
  router.Stop();
  for (std::unique_ptr<SopServer>& w : workers) w->Stop();
}

// --- bit-identical replay of a known-bad schedule -------------------------

// Runs one subscribe-ingest-collect session and returns a full transcript
// of everything the client observed: per-batch ack outcomes, every
// emission, every server diagnostic. With `bad`, the schedule duplicates
// the second ingest frame — the server refuses the replayed boundary and
// the stale ack shifts every later Ingest()'s view, a deterministic
// protocol divergence.
std::string RunTranscript(uint64_t seed, bool bad) {
  Workload workload(WindowType::kCount);
  const std::vector<OutlierQuery> queries = TestQueries(false);
  for (const OutlierQuery& q : queries) workload.AddQuery(q);
  const std::vector<Point> points = GenPoints(320, false, /*seed=*/13);
  const std::vector<Batch> batches = Slice(workload, points);

  SimNet sim(seed);
  ScopedSim armed(&sim);
  if (bad) {
    // Client->server segments: hello(1), subscribe(2), subscribe(3),
    // ingest(4...). Skipping 4 duplicates the second ingest frame.
    FaultRule dup;
    dup.action = FaultRule::Action::kDuplicate;
    dup.direction = +1;
    dup.skip_segments = 4;
    dup.max_applications = 1;
    sim.AddRule(dup);
  }
  std::string transcript;
  std::string error;
  ServerOptions options;
  SopServer server(options);
  EXPECT_TRUE(server.Start(&error)) << error;
  SopClient client;  // no reconnect: the divergence must surface raw
  EXPECT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  std::map<int64_t, size_t> index_of;
  for (size_t i = 0; i < queries.size(); ++i) {
    const int64_t id = client.Subscribe(queries[i], &error);
    EXPECT_GT(id, 0) << error;
    index_of[id] = i;
  }
  for (const Batch& b : batches) {
    IngestAckMsg ack;
    const bool ok = client.Ingest(b.boundary, b.points, &ack, &error);
    transcript += "b" + std::to_string(b.boundary) +
                  ":ok=" + std::to_string(ok ? 1 : 0) +
                  ",acc=" + std::to_string(ack.accepted) +
                  ",ackb=" + std::to_string(ack.boundary) + "\n";
    if (!ok) break;
    for (const net::EmissionMsg& e : client.TakeEmissions()) {
      transcript += "  e q" + std::to_string(index_of.count(e.query_id) != 0
                                                 ? index_of[e.query_id]
                                                 : 999) +
                    "@" + std::to_string(e.boundary) + " n=" +
                    std::to_string(e.outliers.size()) +
                    (e.degraded ? " D" : "") + "\n";
    }
    for (const net::ErrorMsg& err : client.TakeErrors()) {
      transcript += "  err " + err.message + "\n";
    }
  }
  if (bad) {
    EXPECT_EQ(sim.stats().duplicated, 1u) << "the schedule never fired";
  }
  client.Close();
  server.Stop();
  return transcript;
}

// The reproducibility contract the whole harness exists for: the same
// seed replays the same corruption at the same byte and the same
// observable divergence, run after run — a failing schedule logged by any
// sweep is a deterministic repro, not a flake.
TEST(SimTest, KnownBadScheduleReplaysBitIdentically) {
  const uint64_t seed = 42;
  const std::string first = RunTranscript(seed, /*bad=*/true);
  const std::string second = RunTranscript(seed, /*bad=*/true);
  const std::string clean = RunTranscript(seed, /*bad=*/false);
  EXPECT_FALSE(first.empty());
  // Same seed, same schedule -> byte-identical observable history.
  EXPECT_EQ(first, second);
  // And it is a real divergence, not a no-op schedule.
  EXPECT_NE(first, clean);
  // The divergence is the documented one: a refused duplicate boundary.
  EXPECT_NE(first.find("err"), std::string::npos);
  EXPECT_NE(first.find("acc=0"), std::string::npos);
  EXPECT_EQ(clean.find("err"), std::string::npos);
  EXPECT_EQ(clean.find("acc=0"), std::string::npos);
}

// --- virtual-clock timeout paths ------------------------------------------

// The slow-loris defense on simulated time: a connection stalled
// mid-frame is disconnected once the virtual clock passes the idle
// timeout, and a quiet-but-healthy subscriber survives an hour-long
// virtual pause. Ported from ha_test, which could only afford to wait
// 300 wall-milliseconds for the quiet half; here it costs nothing.
TEST(SimTest, IdleTimeoutFiresOnVirtualClockOnly) {
  SimNet sim(/*seed=*/7);
  ScopedSim armed(&sim);
  ServerOptions options;
  options.idle_timeout_ms = 5000;
  SopServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Slow loris: half a ping frame, then silence.
  net::Socket loris = net::ConnectTcp("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(loris.valid()) << error;
  const std::string frame = net::EncodePing(net::PingMsg{});
  const std::string half = frame.substr(0, frame.size() / 2);
  ASSERT_TRUE(net::SendAll(loris, half, &error)) << error;
  ASSERT_TRUE(YieldUntil(
      [&] { return server.stats().bytes_in >= half.size(); }));
  // The reader recomputes its deadline at each recv, so keep advancing
  // past the timeout until one of those deadlines fires.
  ASSERT_TRUE(YieldUntil([&] {
    sim.AdvanceMillis(5001);
    return server.stats().idle_disconnects >= 1;
  }));
  char buf[64];
  int64_t n;
  do {
    n = net::RecvSome(loris, buf, sizeof buf, &error);
  } while (n > 0);
  EXPECT_LE(n, 0);  // the server hung up on it

  // A healthy client that goes quiet for a virtual hour — no partial
  // frame pending — is never timed out.
  SopClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  sim.AdvanceMillis(60 * 60 * 1000);
  EXPECT_GT(client.Subscribe(OutlierQuery(1.0, 2, 100, 50), &error), 0)
      << error;
  client.Close();
  server.Stop();
  EXPECT_EQ(server.stats().idle_disconnects, 1u);
}

// A standby without promote_on_loss keeps standing by after the primary
// is gone for good — through a long virtual wait, not the 100 wall-ms
// ha_test could afford.
TEST(SimTest, StandbyWithoutPromotionStaysStandbyOnVirtualClock) {
  SimNet sim(/*seed=*/8);
  ScopedSim armed(&sim);
  std::string error;
  ServerOptions standby_options;
  standby_options.standby = true;  // no promote_on_loss
  SopServer standby(standby_options);
  ASSERT_TRUE(standby.Start(&error)) << error;

  ServerOptions primary_options;
  primary_options.replicate_host = "127.0.0.1";
  primary_options.replicate_port = standby.port();
  SopServer primary(primary_options);
  ASSERT_TRUE(primary.Start(&error)) << error;

  SopClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", primary.port(), &error)) << error;
  const std::vector<Point> points = GenPoints(32, false, /*seed=*/83);
  IngestAckMsg ack;
  ASSERT_TRUE(client.Ingest(32, points, &ack, &error)) << error;
  ASSERT_EQ(ack.accepted, points.size());
  ASSERT_TRUE(YieldUntil(
      [&] { return standby.stats().repl_batches_applied >= 1; }));
  client.Close();
  primary.Stop();

  // Minutes of virtual time after the replication chain died, across
  // plenty of real scheduling quanta: still a standby.
  for (int i = 0; i < 100; ++i) {
    sim.AdvanceMillis(6000);
    std::this_thread::yield();
  }
  EXPECT_EQ(standby.role(), ServerRole::kStandby);
  EXPECT_EQ(standby.stats().promotions, 0u);
  EXPECT_EQ(standby.stats().last_boundary, 32);
  standby.Stop();
}

// The replication-ack deadline on simulated time: partition the standby
// so a replicated batch is swallowed mid-chain, advance the clock past
// repl_ack_timeout_ms, heal — the primary must declare the link dead,
// reconnect, and resync with a fresh snapshot carrying the swallowed
// batch. The wall clock never enters into it.
TEST(SimTest, ReplAckTimeoutResyncsOnVirtualClock) {
  SimNet sim(/*seed=*/9);
  ScopedSim armed(&sim);
  std::string error;
  ServerOptions standby_options;
  standby_options.standby = true;
  SopServer standby(standby_options);
  ASSERT_TRUE(standby.Start(&error)) << error;

  ServerOptions primary_options;
  primary_options.replicate_host = "127.0.0.1";
  primary_options.replicate_port = standby.port();
  ASSERT_EQ(primary_options.repl_ack_timeout_ms, 2000);  // the path under test
  SopServer primary(primary_options);
  ASSERT_TRUE(primary.Start(&error)) << error;

  SopClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", primary.port(), &error)) << error;
  const std::vector<Point> points = GenPoints(150, false, /*seed=*/91);
  const std::vector<Batch> batches = SliceCount(points, 50);
  ASSERT_EQ(batches.size(), 3u);

  // Healthy chain first: batch 1 replicates normally.
  IngestAckMsg ack;
  ASSERT_TRUE(
      client.Ingest(batches[0].boundary, batches[0].points, &ack, &error))
      << error;
  ASSERT_TRUE(YieldUntil(
      [&] { return standby.stats().repl_batches_applied >= 1; }));

  // Partition (swallow, no cut): batch 2's replication frame vanishes in
  // flight and the primary blocks on an ack that will never come.
  sim.Partition(standby.port());
  ASSERT_TRUE(
      client.Ingest(batches[1].boundary, batches[1].points, &ack, &error))
      << error;
  ASSERT_TRUE(YieldUntil(
      [&] { return sim.stats().partition_dropped >= 1; }));

  // Heal, then advance simulated time until the ack deadline fires. Only
  // the timeout can break the wait — the swallowed frame is gone — so the
  // primary's reconnect, and the snapshot resync below, prove the deadline
  // ran on the virtual clock. (A healthy chain never ships a snapshot: the
  // first batch starts it from scratch, so snapshots_sent > 0 IS the
  // timeout firing.) Time stops once the primary reconnects: the
  // snapshot's own ack wait is on the same virtual deadline, and a loop
  // that kept advancing could expire it before a slow standby acks.
  sim.Heal(standby.port());
  const uint64_t connects = sim.stats().connects;
  ASSERT_TRUE(YieldUntil([&] {
    if (sim.stats().connects > connects) return true;
    sim.AdvanceMillis(500);
    return false;
  }));
  ASSERT_TRUE(
      YieldUntil([&] { return primary.stats().repl_snapshots_sent >= 1; }));
  // The fresh snapshot carries the swallowed batch.
  ASSERT_TRUE(YieldUntil([&] {
    return standby.stats().last_boundary == batches[1].boundary;
  }));
  EXPECT_GE(standby.stats().repl_snapshots_applied, 1u);

  // And the chain streams batches again after the resync.
  ASSERT_TRUE(
      client.Ingest(batches[2].boundary, batches[2].points, &ack, &error))
      << error;
  ASSERT_TRUE(YieldUntil([&] {
    return standby.stats().last_boundary == batches[2].boundary;
  }));
  client.Close();
  primary.Stop();
  standby.Stop();
}

// --- soak sweep (nightly; gated) ------------------------------------------

// Hundreds of seeds across the three seeded drills. Gated on SOP_SOAK so
// tier-1 ctest stays fast; tools/soak_sim.sh runs it with artifacts. The
// heavier drills (failover, routed) run every 8th seed to bound the
// sweep's wall time; the exactly-once cut drill runs on every seed.
TEST(SimSoak, SeedSweep) {
  if (std::getenv("SOP_SOAK") == nullptr) {
    GTEST_SKIP() << "set SOP_SOAK=1 (tools/soak_sim.sh) to run the sweep";
  }
  const testing::FuzzParams fuzz = testing::AnnouncedFuzzParams("sim soak", 0);
  const int64_t seeds = SimSeedsOr(200);
  std::vector<uint64_t> failing;
  const ::testing::TestResult* result =
      ::testing::UnitTest::GetInstance()->current_test_info()->result();
  for (int64_t i = 0; i < seeds; ++i) {
    const uint64_t seed = fuzz.seed + static_cast<uint64_t>(i);
    const int before = result->total_part_count();
    {
      SCOPED_TRACE("soak: replay with SOP_FUZZ_SEED=" + std::to_string(seed) +
                   " SOP_SIM_SEEDS=1");
      ExactlyOnceCutDrill(seed);
      if (i % 8 == 0) {
        FailoverDrill(seed);
        RoutedCutDrill(seed);
      }
    }
    if (result->total_part_count() > before) {
      failing.push_back(seed);
      std::fprintf(stderr, "[ sim ] soak FAILING seed=%llu\n",
                   static_cast<unsigned long long>(seed));
    }
  }
  std::fprintf(stderr, "[ sim ] soak swept %lld seeds, %zu failing\n",
               static_cast<long long>(seeds), failing.size());
  const char* dir = std::getenv("SOP_SOAK_ARTIFACTS");
  if (dir != nullptr && !failing.empty()) {
    const std::string path = std::string(dir) + "/failing_seeds.txt";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f != nullptr) {
      for (const uint64_t seed : failing) {
        std::fprintf(f, "SOP_FUZZ_SEED=%llu SOP_SIM_SEEDS=1\n",
                     static_cast<unsigned long long>(seed));
      }
      std::fclose(f);
      std::fprintf(stderr, "[ sim ] failing seeds written to %s\n",
                   path.c_str());
    }
  }
}

}  // namespace
}  // namespace sop
