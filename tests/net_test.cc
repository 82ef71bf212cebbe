// End-to-end tests of the serving plane (net/server.h + net/client.h):
//
//   * loopback equivalence — every registered detector, both window types,
//     served over TCP, must emit exactly what a direct ExecutionEngine run
//     emits (the sharing-as-a-service contract),
//   * live subscription churn against a direct SopSession oracle,
//   * overload shedding (kDropOldest) with the degraded-flag handshake,
//   * hostile bytes on the wire poison only their own connection, on a
//     lone server's front and on a router's,
//   * closed connections are released: connect-and-close churn against
//     either front does not grow the process,
//   * checkpointed restart resumes the shared stream mid-flight (and a
//     bare session blob at the checkpoint path is not a checkpoint), and
//     a corrupt newest checkpoint falls back one generation,
//   * refusal paths: unknown detector, invalid query, stale boundary, a
//     batch of the wrong dimensionality, a time regression,
//   * one source per count: the global obs registry holds no copy of a
//     server's or its session's counts.
//
// Assertions read ServerStats (always-on atomics), so the suite passes
// identically under -DSOP_NO_OBS.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "sop/cluster/router.h"
#include "sop/common/random.h"
#include "sop/core/session.h"
#include "sop/detector/factory.h"
#include "sop/io/file_util.h"
#include "sop/net/client.h"
#include "sop/net/server.h"
#include "sop/net/socket.h"
#include "sop/obs/metrics.h"
#include "sop/stream/window.h"
#include "test_util.h"

namespace sop {
namespace net {
namespace {

using testing::CollectResults;

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

/// 1-D points: a unit-variance cluster with ~5% far-out spikes. Count
/// streams tick 0,1,2,...; time streams advance irregularly with
/// occasional long gaps so empty batch spans get exercised.
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

/// Count-window slicing exactly as ExecutionEngine does it: one batch per
/// `span` points, boundary = cumulative count, trailing partial dropped.
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

/// Time-window slicing exactly as ExecutionEngine does it: spans of `span`
/// time units starting at the first boundary past the first point, empty
/// spans advanced, the final partial span flushed at its boundary.
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

/// Subscribes `queries` (in order), streams `batches`, and returns every
/// emission as a QueryResult with query ids mapped back to subscribe-order
/// indexes — directly comparable to a CollectResults run.
std::vector<QueryResult> RunLoopback(int port,
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

/// A connection front under test: a lone server, or a router before one
/// worker (the router translates a count deployment for it).
struct TestFront {
  std::unique_ptr<SopServer> server;  // the lone server, or the worker
  std::unique_ptr<cluster::SopRouter> router;

  int port() const { return router ? router->port() : server->port(); }
  uint64_t protocol_errors() const {
    return router ? router->stats().protocol_errors
                  : server->stats().protocol_errors;
  }
  ~TestFront() {
    if (router != nullptr) router->Stop();
    if (server != nullptr) server->Stop();
  }
};

bool StartFront(bool routed, TestFront* front, std::string* error) {
  ServerOptions options;
  if (routed) options.window_type = WindowType::kTime;
  front->server = std::make_unique<SopServer>(options);
  if (!front->server->Start(error)) return false;
  if (!routed) return true;
  cluster::RouterOptions ro;
  ro.workers.push_back({"127.0.0.1", front->server->port()});
  ro.partition = cluster::PartitionSpec::Uniform(-6.0, 6.0, 1);
  front->router = std::make_unique<cluster::SopRouter>(ro);
  return front->router->Start(error);
}

// --- loopback equivalence ------------------------------------------------

// The serving-plane contract: a subscribe-ingest-collect loop over TCP is
// indistinguishable from driving the detector directly, for every detector
// the factory knows, over both window types.
TEST(NetTest, LoopbackMatchesEngineEveryDetector) {
  for (const bool time_windows : {false, true}) {
    Workload workload(time_windows ? WindowType::kTime : WindowType::kCount);
    std::vector<OutlierQuery> queries;
    if (time_windows) {
      queries.push_back(OutlierQuery(1.5, 4, 80, 20));
      queries.push_back(OutlierQuery(2.0, 3, 120, 30));
    } else {
      queries.push_back(OutlierQuery(1.5, 4, 100, 50));
      queries.push_back(OutlierQuery(2.0, 3, 150, 50));
    }
    for (const OutlierQuery& q : queries) workload.AddQuery(q);
    ASSERT_EQ(workload.Validate(), "");
    const std::vector<Point> points =
        GenPoints(time_windows ? 240 : 320, time_windows,
                  /*seed=*/7 + (time_windows ? 1 : 0));
    const std::vector<Batch> batches = Slice(workload, points);
    ASSERT_GT(batches.size(), 3u);

    for (const std::string& name : KnownDetectorNames()) {
      const std::string label =
          name + (time_windows ? "/time" : "/count") + " loopback";
      std::unique_ptr<OutlierDetector> detector =
          CreateDetector(name, workload);
      const std::vector<QueryResult> expected =
          CollectResults(workload, points, detector.get());

      ServerOptions options;
      options.window_type = workload.window_type();
      options.detector = name;
      SopServer server(options);
      std::string error;
      ASSERT_TRUE(server.Start(&error)) << label << ": " << error;
      const std::vector<QueryResult> actual =
          RunLoopback(server.port(), queries, batches, label);
      server.Stop();
      testing::ExpectSameResults(expected, actual, label);

      const ServerStats stats = server.stats();
      EXPECT_EQ(stats.ingest_batches, batches.size()) << label;
      EXPECT_EQ(stats.emissions, expected.size()) << label;
      EXPECT_EQ(stats.shed_emissions, 0u) << label;
      EXPECT_EQ(stats.protocol_errors, 0u) << label;
    }
  }
}

// Subscribing and retiring queries mid-stream over the wire matches the
// same schedule applied directly to a SopSession (same detector builder,
// same 1-based id assignment).
TEST(NetTest, MidRunSubscriptionChurnMatchesDirectSession) {
  const std::vector<Point> points = GenPoints(300, false, /*seed=*/21);
  const std::vector<Batch> batches = SliceCount(points, 50);
  ASSERT_EQ(batches.size(), 6u);
  const OutlierQuery qa(1.5, 4, 100, 50);
  const OutlierQuery qb(2.5, 2, 150, 50);

  // Direct oracle: same ops, no network.
  std::vector<SessionResult> expected;
  {
    SopSession session(WindowType::kCount, Metric::kEuclidean, 4096);
    session.SetDetectorBuilder(
        [](const Workload& w) { return CreateDetector("sop", w); });
    auto advance = [&](const Batch& b) {
      for (SessionResult& r : session.Advance(b.points, b.boundary)) {
        expected.push_back(std::move(r));
      }
    };
    const QueryId a = session.AddQuery(qa);
    advance(batches[0]);
    advance(batches[1]);
    session.AddQuery(qb);
    advance(batches[2]);
    advance(batches[3]);
    session.RemoveQuery(a);
    advance(batches[4]);
    advance(batches[5]);
  }

  ServerOptions options;
  SopServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  SopClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;

  std::vector<EmissionMsg> actual;
  auto ingest = [&](const Batch& b) {
    IngestAckMsg ack;
    ASSERT_TRUE(client.Ingest(b.boundary, b.points, &ack, &error)) << error;
    ASSERT_EQ(ack.accepted, b.points.size());
    for (EmissionMsg& e : client.TakeEmissions()) {
      actual.push_back(std::move(e));
    }
  };
  const int64_t a = client.Subscribe(qa, &error);
  ASSERT_GT(a, 0) << error;
  ingest(batches[0]);
  ingest(batches[1]);
  const int64_t b = client.Subscribe(qb, &error);
  ASSERT_GT(b, 0) << error;
  ingest(batches[2]);
  ingest(batches[3]);
  ASSERT_TRUE(client.Unsubscribe(a, &error)) << error;
  ingest(batches[4]);
  ingest(batches[5]);
  server.Stop();

  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].query_id, expected[i].query_id) << "emission " << i;
    EXPECT_EQ(actual[i].boundary, expected[i].boundary) << "emission " << i;
    EXPECT_EQ(actual[i].outliers, expected[i].outliers) << "emission " << i;
    EXPECT_FALSE(actual[i].degraded) << "emission " << i;
  }
  EXPECT_EQ(server.stats().subscribes, 2u);
  EXPECT_EQ(server.stats().unsubscribes, 1u);
  // qb's mid-run subscribe introduces a new radius layer (2.5), which the
  // live basis does not cover: the second rebuild after the first compile,
  // replaying history. The unsubscribe is an in-place overlay swap that
  // replays nothing.
  EXPECT_EQ(server.stats().overlay_changes, 1u);
  EXPECT_EQ(server.stats().rebuild_changes, 2u);
  EXPECT_GT(server.stats().replayed_points, 0u);
}

// --- overload ------------------------------------------------------------

// A subscriber that stops reading while an ingester floods must not stall
// the stream under kDropOldest: the server sheds its oldest queued
// emissions (counted) and flags the next delivered one degraded.
TEST(NetTest, DropOldestShedsAndFlagsDegraded) {
  ServerOptions options;
  options.max_send_queue = 4;
  options.send_policy = OverloadPolicy::kDropOldest;
  SopServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Eight queries over one shared pass; every point is an outlier (spread
  // integers, microscopic r), so each batch pushes 8 frames of win seqs —
  // enough volume to fill the subscriber's TCP buffers and send queue.
  SopClient subscriber;
  ASSERT_TRUE(subscriber.Connect("127.0.0.1", server.port(), &error))
      << error;
  const OutlierQuery q(1e-6, 1, 512, 128);
  for (int i = 0; i < 8; ++i) {
    ASSERT_GT(subscriber.Subscribe(q, &error), 0) << error;
  }

  SopClient ingester;
  ASSERT_TRUE(ingester.Connect("127.0.0.1", server.port(), &error)) << error;
  constexpr int64_t kSpan = 128;
  int64_t shipped = 0;
  int64_t next_value = 0;
  auto next_batch = [&]() {
    std::vector<Point> batch;
    for (int64_t i = 0; i < kSpan; ++i, ++next_value) {
      batch.emplace_back(Seq{0}, static_cast<Timestamp>(next_value),
                         std::vector<double>{static_cast<double>(next_value)});
    }
    return batch;
  };
  bool shed = false;
  for (int i = 0; i < 1500 && !shed; ++i) {
    const std::vector<Point> batch = next_batch();
    shipped += kSpan;
    IngestAckMsg ack;
    ASSERT_TRUE(ingester.Ingest(shipped, batch, &ack, &error)) << error;
    ASSERT_EQ(ack.accepted, static_cast<uint64_t>(kSpan));
    shed = server.stats().shed_emissions > 0;
  }
  ASSERT_TRUE(shed) << "no emission shed after "
                    << server.stats().ingest_batches << " batches";

  // The subscriber wakes up and ingests one batch of its own: draining the
  // ack drains everything queued before it, including the degraded marker.
  const std::vector<Point> batch = next_batch();
  shipped += kSpan;
  IngestAckMsg ack;
  ASSERT_TRUE(subscriber.Ingest(shipped, batch, &ack, &error)) << error;
  ASSERT_EQ(ack.accepted, static_cast<uint64_t>(kSpan));
  uint64_t degraded = 0;
  for (const EmissionMsg& e : subscriber.TakeEmissions()) {
    if (e.degraded) ++degraded;
  }
  EXPECT_GT(degraded, 0u);
  server.Stop();
  EXPECT_GT(server.stats().shed_emissions, 0u);
}

// --- hostile bytes -------------------------------------------------------

// Garbage and corrupted frames poison exactly one connection each:
// counted as protocol errors, never a crash, and never collateral damage to
// a well-behaved client on the same front — a lone server's, or a
// router's.
TEST(NetTest, MalformedBytesPoisonOnlyTheirConnection) {
  const std::vector<Point> points = GenPoints(100, false, /*seed=*/5);
  Workload workload(WindowType::kCount);
  const std::vector<OutlierQuery> queries = {OutlierQuery(1.5, 3, 50, 50)};
  workload.AddQuery(queries[0]);
  std::unique_ptr<OutlierDetector> detector = CreateDetector("sop", workload);
  const std::vector<QueryResult> expected =
      CollectResults(workload, points, detector.get());

  for (const bool routed : {false, true}) {
    const std::string label = routed ? "router" : "server";
    TestFront front;
    std::string error;
    ASSERT_TRUE(StartFront(routed, &front, &error)) << label << ": " << error;
    {
      // Pure garbage: framing is lost immediately.
      Socket raw = ConnectTcp("127.0.0.1", front.port(), &error);
      ASSERT_TRUE(raw.valid()) << label << ": " << error;
      ASSERT_TRUE(SendAll(raw, "definitely not a SOPF frame", &error))
          << label << ": " << error;
      ASSERT_TRUE(WaitUntil([&] { return front.protocol_errors() >= 1; }))
          << label;
    }
    {
      // A bit flip inside a valid frame: CRC catches it.
      std::string frame = EncodeSubscribe(SubscribeMsg{});
      frame[frame.size() - 3] ^= 0x20;
      Socket raw = ConnectTcp("127.0.0.1", front.port(), &error);
      ASSERT_TRUE(raw.valid()) << label << ": " << error;
      ASSERT_TRUE(SendAll(raw, frame, &error)) << label << ": " << error;
      ASSERT_TRUE(WaitUntil([&] { return front.protocol_errors() >= 2; }))
          << label;
    }

    const std::vector<QueryResult> actual =
        RunLoopback(front.port(), queries, SliceCount(points, 50),
                    label + " post-garbage");
    testing::ExpectSameResults(expected, actual, label + " post-garbage");
    EXPECT_EQ(front.protocol_errors(), 2u) << label;
  }
}

// --- connection churn ----------------------------------------------------

/// Lines in this process's memory map, or 0 where /proc is missing. Every
/// thread that ended but was never joined keeps its stack mapped.
size_t MapLines() {
  std::string maps;
  std::string error;
  if (!io::ReadFileToString("/proc/self/maps", &maps, &error)) return 0;
  return static_cast<size_t>(std::count(maps.begin(), maps.end(), '\n'));
}

// A front releases every closed connection: once its reader and writer
// have returned they are joined and the connection dropped, so
// connect-and-close churn does not grow the process. An unreleased
// connection keeps two thread stacks, each with its guard page: about
// four map lines, so 300 leaked cycles would add about 1,200.
TEST(NetTest, ClosedConnectionsAreReleased) {
  if (MapLines() == 0) GTEST_SKIP() << "no /proc/self/maps";
  constexpr int kCycles = 300;
  for (const bool routed : {false, true}) {
    const std::string label = routed ? "router" : "server";
    TestFront front;
    std::string error;
    ASSERT_TRUE(StartFront(routed, &front, &error)) << label << ": " << error;
    const size_t before = MapLines();
    for (int i = 0; i < kCycles; ++i) {
      SopClient client;
      ASSERT_TRUE(client.Connect("127.0.0.1", front.port(), &error))
          << label << " cycle " << i << ": " << error;
      client.Close();
    }
    const size_t after = MapLines();
    EXPECT_LT(after, before + kCycles)
        << label << ": " << before << " -> " << after << " map lines";
  }
}

// --- checkpointed restart ------------------------------------------------

// Stop a checkpointing server mid-stream, start a fresh one on the same
// path: it resumes the shared stream position, and a re-registered query's
// emissions continue exactly as an uninterrupted direct session's would.
// The first server starts over a bare SopSession::SaveState blob at the
// checkpoint path: only kReplSnapshot frames are checkpoints, so it must
// start fresh.
TEST(NetTest, CheckpointedRestartResumesTheStream) {
  const std::string path =
      ::testing::TempDir() + "sop_net_restart.checkpoint";
  std::remove(path.c_str());

  const std::vector<Point> points = GenPoints(200, false, /*seed=*/77);
  const std::vector<Batch> batches = SliceCount(points, 20);
  ASSERT_EQ(batches.size(), 10u);
  const OutlierQuery q(1.5, 3, 100, 20);

  // Uninterrupted oracle.
  std::vector<SessionResult> expected_tail;
  std::string bare_state;
  {
    SopSession session(WindowType::kCount, Metric::kEuclidean, 4096);
    session.SetDetectorBuilder(
        [](const Workload& w) { return CreateDetector("sop", w); });
    session.AddQuery(q);
    for (size_t i = 0; i < batches.size(); ++i) {
      for (SessionResult& r :
           session.Advance(batches[i].points, batches[i].boundary)) {
        if (r.boundary > batches[5].boundary) {
          expected_tail.push_back(std::move(r));
        }
      }
      if (i == 5) bare_state = session.SaveState();
    }
  }

  ServerOptions options;
  options.checkpoint_path = path;
  options.checkpoint_every_batches = 2;

  {
    std::string error;
    ASSERT_TRUE(io::WriteFileAtomic(path, bare_state, &error)) << error;
    SopServer server(options);
    ASSERT_TRUE(server.Start(&error)) << error;
    EXPECT_FALSE(server.stats().resumed);
    SopClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
    EXPECT_EQ(client.server_info().last_boundary, INT64_MIN);
    ASSERT_GT(client.Subscribe(q, &error), 0) << error;
    for (size_t i = 0; i < 6; ++i) {
      IngestAckMsg ack;
      ASSERT_TRUE(client.Ingest(batches[i].boundary, batches[i].points, &ack,
                                &error))
          << error;
      ASSERT_EQ(ack.accepted, batches[i].points.size());
    }
    server.Stop();  // final checkpoint at batch 6's boundary
    EXPECT_GT(server.stats().checkpoints, 0u);
  }

  SopServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  EXPECT_TRUE(server.stats().resumed);
  SopClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  // The handshake hands a late joiner the shared stream position.
  EXPECT_EQ(client.server_info().last_boundary, batches[5].boundary);
  ASSERT_GT(client.Subscribe(q, &error), 0) << error;
  {
    // Boundary monotonicity survives the restart: replaying an already
    // advanced batch is refused, not applied (and not a crash).
    IngestAckMsg ack;
    ASSERT_TRUE(
        client.Ingest(batches[5].boundary, batches[5].points, &ack, &error))
        << error;
    EXPECT_EQ(ack.accepted, 0u);
    client.TakeErrors();
  }
  std::vector<EmissionMsg> tail;
  for (size_t i = 6; i < batches.size(); ++i) {
    IngestAckMsg ack;
    ASSERT_TRUE(
        client.Ingest(batches[i].boundary, batches[i].points, &ack, &error))
        << error;
    ASSERT_EQ(ack.accepted, batches[i].points.size());
    for (EmissionMsg& e : client.TakeEmissions()) {
      tail.push_back(std::move(e));
    }
  }
  server.Stop();
  std::remove(path.c_str());

  ASSERT_EQ(tail.size(), expected_tail.size());
  for (size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].boundary, expected_tail[i].boundary) << "emission " << i;
    EXPECT_EQ(tail[i].outliers, expected_tail[i].outliers)
        << "emission " << i;
  }
}

// With checkpoint_generations = 2, a corrupt newest checkpoint costs one
// generation, not the stream: the restarted server resumes from path.1 at
// that generation's boundary.
TEST(NetTest, CorruptNewestCheckpointFallsBackAGeneration) {
  const std::string path =
      ::testing::TempDir() + "sop_net_generations.checkpoint";
  const std::string older = io::GenerationPath(path, 1);
  std::remove(path.c_str());
  std::remove(older.c_str());

  const std::vector<Point> points = GenPoints(80, false, /*seed=*/41);
  const std::vector<Batch> batches = SliceCount(points, 20);
  ASSERT_EQ(batches.size(), 4u);
  ServerOptions options;
  options.checkpoint_path = path;
  options.checkpoint_every_batches = 2;
  options.checkpoint_generations = 2;
  std::string error;
  {
    SopServer server(options);
    ASSERT_TRUE(server.Start(&error)) << error;
    SopClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
    for (const Batch& b : batches) {
      IngestAckMsg ack;
      ASSERT_TRUE(client.Ingest(b.boundary, b.points, &ack, &error)) << error;
      ASSERT_EQ(ack.accepted, b.points.size());
    }
    // No final checkpoint: `path` holds batch 4's boundary, path.1 batch
    // 2's.
    server.Kill();
    EXPECT_EQ(server.stats().checkpoints, 2u);
  }
  std::string newest;
  ASSERT_TRUE(io::ReadFileToString(path, &newest, &error)) << error;
  newest[newest.size() / 2] ^= 0x10;
  ASSERT_TRUE(io::WriteFileAtomic(path, newest, &error)) << error;

  SopServer server(options);
  ASSERT_TRUE(server.Start(&error)) << error;
  EXPECT_TRUE(server.stats().resumed);
  EXPECT_EQ(server.stats().checkpoint_fallbacks, 1u);
  EXPECT_EQ(server.stats().last_boundary, batches[1].boundary);
  SopClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  EXPECT_EQ(client.server_info().last_boundary, batches[1].boundary);
  server.Stop();
  std::remove(path.c_str());
  std::remove(older.c_str());
}

// --- refusal paths -------------------------------------------------------

TEST(NetTest, UnknownDetectorRefusedAtStart) {
  ServerOptions options;
  options.detector = "definitely-not-a-detector";
  SopServer server(options);
  std::string error;
  EXPECT_FALSE(server.Start(&error));
  EXPECT_NE(error.find("known detectors"), std::string::npos) << error;
  for (const std::string& name : KnownDetectorNames()) {
    EXPECT_NE(error.find(name), std::string::npos) << error;
  }
}

TEST(NetTest, InvalidSubscriptionRefusedConnectionSurvives) {
  ServerOptions options;
  SopServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  SopClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;

  EXPECT_EQ(client.Subscribe(OutlierQuery(-1.0, 2, 100, 50), &error), 0);
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(client.connected());

  // The refusal cost nothing: the same connection subscribes and ingests.
  ASSERT_GT(client.Subscribe(OutlierQuery(1.0, 2, 100, 50), &error), 0)
      << error;
  IngestAckMsg ack;
  const std::vector<Point> points = GenPoints(50, false, /*seed=*/3);
  ASSERT_TRUE(client.Ingest(50, points, &ack, &error)) << error;
  EXPECT_EQ(ack.accepted, points.size());
  server.Stop();
  // A refused subscription is a negotiation, not a protocol violation.
  EXPECT_EQ(server.stats().protocol_errors, 0u);
  EXPECT_EQ(server.stats().subscribes, 1u);
}

TEST(NetTest, StaleBoundaryRefusedStreamContinues) {
  ServerOptions options;
  SopServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  SopClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  const std::vector<Point> points = GenPoints(50, false, /*seed=*/9);

  IngestAckMsg ack;
  ASSERT_TRUE(client.Ingest(100, points, &ack, &error)) << error;
  EXPECT_EQ(ack.accepted, points.size());

  // A boundary that does not advance the stream is refused — with a
  // diagnostic, not a dropped connection or a dead server.
  ASSERT_TRUE(client.Ingest(50, points, &ack, &error)) << error;
  EXPECT_EQ(ack.accepted, 0u);
  const std::vector<ErrorMsg> errors = client.TakeErrors();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].message.find("does not advance"), std::string::npos);

  ASSERT_TRUE(client.Ingest(200, points, &ack, &error)) << error;
  EXPECT_EQ(ack.accepted, points.size());
  server.Stop();
  EXPECT_EQ(server.stats().ingest_batches, 2u);
}

// Streams `points`, sliced as the engine slices them, to a fresh server
// for `workload`'s single query, sending `bad` at batch `bad_at`'s
// boundary first. The bad batch must be refused with a diagnostic naming
// `reason`, and the valid stream must answer exactly as the engine does.
void ExpectRefusedThenServed(const Workload& workload,
                             const std::vector<Point>& points,
                             const std::vector<Point>& bad, size_t bad_at,
                             const std::string& reason) {
  ServerOptions options;
  options.window_type = workload.window_type();
  SopServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  SopClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  ASSERT_GT(client.Subscribe(workload.query(0), &error), 0) << error;

  const std::vector<Batch> batches = Slice(workload, points);
  ASSERT_GT(batches.size(), bad_at + 1);
  std::vector<QueryResult> actual;
  IngestAckMsg ack;
  for (size_t i = 0; i < batches.size(); ++i) {
    if (i == bad_at) {
      ASSERT_TRUE(client.Ingest(batches[i].boundary, bad, &ack, &error))
          << error;
      EXPECT_EQ(ack.accepted, 0u);
      const std::vector<ErrorMsg> errors = client.TakeErrors();
      ASSERT_EQ(errors.size(), 1u);
      EXPECT_NE(errors[0].message.find(reason), std::string::npos)
          << errors[0].message;
    }
    ASSERT_TRUE(client.Ingest(batches[i].boundary, batches[i].points, &ack,
                              &error))
        << error;
    ASSERT_EQ(ack.accepted, batches[i].points.size()) << "batch " << i;
    for (const EmissionMsg& e : client.TakeEmissions()) {
      QueryResult r;
      r.query_index = 0;
      r.boundary = e.boundary;
      r.outliers = e.outliers;
      actual.push_back(std::move(r));
    }
  }
  server.Stop();
  std::unique_ptr<OutlierDetector> detector = CreateDetector("sop", workload);
  testing::ExpectSameResults(CollectResults(workload, points, detector.get()),
                             actual, reason);
  EXPECT_EQ(server.stats().ingest_batches, batches.size());
  EXPECT_EQ(server.stats().rejected_points, bad.size());
}

// The first accepted point fixes the stream's dimensionality: a 3-d batch
// after 2-d ones is refused (and its points counted), not fed to the
// detector, whose column store would abort the process on it.
TEST(NetTest, DimensionalityChangeRefusedStreamContinues) {
  Workload workload(WindowType::kCount);
  workload.AddQuery(OutlierQuery(1.5, 4, 100, 50));
  std::vector<Point> points = GenPoints(300, false, /*seed=*/31);
  for (Point& p : points) p.values.push_back(-p.values[0]);
  std::vector<Point> wide(points.begin() + 50, points.begin() + 100);
  for (Point& p : wide) p.values.push_back(1.0);

  ExpectRefusedThenServed(workload, points, wide, 1, "dimensions");
}

// In time windows, a point older than the last accepted one is refused:
// the detector's stream buffer would abort the process on it.
TEST(NetTest, TimeRegressionRefusedStreamContinues) {
  Workload workload(WindowType::kTime);
  workload.AddQuery(OutlierQuery(1.5, 4, 80, 20));
  const std::vector<Point> points = GenPoints(240, true, /*seed=*/33);
  const std::vector<Batch> batches = Slice(workload, points);
  // A batch whose newest point is older than batch 2's last point, sent
  // at batch 3's boundary.
  ASSERT_FALSE(batches[2].points.empty());
  std::vector<Point> stale = batches[3].points;
  Point late = batches[2].points.back();
  late.time -= 1;
  stale.push_back(late);
  ExpectRefusedThenServed(workload, points, stale, 3, "below the previous");
}

// --- one source per count ------------------------------------------------

// A server's counts live in its stats() alone. The global registry is
// shared by every server in the process, so with obs on a subscribe, a
// subscribe that forces a rebuild, ingest and an unsubscribe must leave no
// net/server/* or session/* counter there.
TEST(NetTest, ServerCountsHaveOneSourceItsStats) {
  obs::SetEnabled(true);
  obs::MetricsRegistry::Global().Reset();
  SopServer server(ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  SopClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  const std::vector<Batch> batches =
      SliceCount(GenPoints(100, false, /*seed=*/5), 50);
  IngestAckMsg ack;
  ASSERT_GT(client.Subscribe(OutlierQuery(1.5, 4, 100, 50), &error), 0)
      << error;
  ASSERT_TRUE(client.Ingest(batches[0].boundary, batches[0].points, &ack,
                            &error))
      << error;
  // A new radius is outside the live basis: the next batch rebuilds.
  const int64_t wider = client.Subscribe(OutlierQuery(2.5, 4, 100, 50), &error);
  ASSERT_GT(wider, 0) << error;
  ASSERT_TRUE(client.Ingest(batches[1].boundary, batches[1].points, &ack,
                            &error))
      << error;
  ASSERT_TRUE(client.Unsubscribe(wider, &error)) << error;
  server.Stop();
  obs::SetEnabled(false);

  for (const auto& counter :
       obs::MetricsRegistry::Global().TakeSnapshot().counters) {
    EXPECT_NE(counter.first.rfind("net/server/", 0), 0u) << counter.first;
    EXPECT_NE(counter.first.rfind("session/", 0), 0u) << counter.first;
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.subscribes, 2u);
  EXPECT_EQ(stats.unsubscribes, 1u);
  EXPECT_EQ(stats.ingest_batches, 2u);
  EXPECT_EQ(stats.ingest_points, 100u);
  EXPECT_EQ(stats.rebuild_changes, 2u);  // the first compile, the new radius
  EXPECT_EQ(stats.replayed_points, 50u);  // the first batch, into the rebuild
  EXPECT_EQ(stats.rejected_points, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_GT(stats.emissions, 0u);
  EXPECT_EQ(stats.connections, 1u);
  EXPECT_GE(stats.frames_in, 6u);  // hello, 2 subscribes, 2 ingests, 1 unsub
  EXPECT_GT(stats.bytes_in, 0u);
  EXPECT_GT(stats.bytes_out, 0u);
}

}  // namespace
}  // namespace net
}  // namespace sop
