// End-to-end tests of the high-availability serving plane (DESIGN.md
// Sec. 16): checkpoint-shipping replication, hot-standby promotion, and
// client auto-reconnect with exactly-once resume.
//
//   * failover equivalence — for every registered detector, both window
//     types: kill the primary mid-stream, let the standby promote, let the
//     client reconnect transparently — the delivered emission sequence
//     must equal an uninterrupted run's, with no duplicates and no gaps,
//   * multi-cycle failover: primary -> promoted standby -> a third server
//     restarted from the standby's final checkpoint,
//   * exactly-once resume without a failover: a subscriber that
//     disconnects and resumes from its high-water mark receives precisely
//     the emissions it missed,
//   * resume past the ring's reach: the ack carries `gap` and the next
//     live emission is flagged degraded instead of silently losing data,
//   * graceful stop drains queued emissions to slow subscribers and
//     publishes a final checkpoint,
//   * idle timeout disconnects mid-frame stalls (slow loris) but never a
//     quiet-but-healthy subscriber,
//   * the health plane reports role, stream position and queue depths,
//     and a standby refuses ingest/subscribe until promoted,
//   * a standby refuses a replicated batch that breaks the stream's
//     rules instead of applying it.
//
// All assertions read ServerStats (always-on atomics), never obs counters,
// so the suite passes identically under -DSOP_NO_OBS.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "sop/common/random.h"
#include "sop/detector/factory.h"
#include "sop/net/client.h"
#include "sop/net/protocol.h"
#include "sop/net/server.h"
#include "sop/net/socket.h"
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

/// 1-D points: a unit-variance cluster with ~5% far-out spikes (as in
/// net_test). Count streams tick 0,1,2,...; time streams advance
/// irregularly with occasional long gaps so empty batch spans replicate.
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

/// Count-window slicing exactly as ExecutionEngine does it.
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

/// Time-window slicing exactly as ExecutionEngine does it.
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

/// Sorts results by (boundary, query index). Live delivery interleaves
/// queries within a boundary in session order, while resume replay is
/// per-query, so the interleaving at a failover seam can legally differ
/// from an uninterrupted run's; per-query boundary order — what the
/// exactly-once contract actually promises — is unaffected, and each
/// (query, boundary) pair is unique, so the sorted comparison is exact.
void Canonicalize(std::vector<QueryResult>* results) {
  std::stable_sort(results->begin(), results->end(),
                   [](const QueryResult& a, const QueryResult& b) {
                     if (a.boundary != b.boundary) {
                       return a.boundary < b.boundary;
                     }
                     return a.query_index < b.query_index;
                   });
}

/// No (query, boundary) delivered twice — the "no duplicates" half of
/// exactly-once (ExpectSameResults against the oracle covers "no gaps").
void ExpectNoDuplicates(const std::vector<QueryResult>& results,
                        const std::string& label) {
  std::set<std::pair<size_t, int64_t>> seen;
  for (const QueryResult& r : results) {
    EXPECT_TRUE(seen.insert({r.query_index, r.boundary}).second)
        << label << ": duplicate emission q" << r.query_index << "@"
        << r.boundary;
  }
}

/// The core drill: a primary replicating to a hot standby, a reconnecting
/// client streaming `batches` — with the primary killed (crash-style)
/// right before batch `kill_at` ships. Returns every emission the client
/// saw, with query ids mapped back to subscribe-order indexes.
std::vector<QueryResult> RunFailoverCycle(
    const std::string& detector, WindowType window_type,
    const std::vector<OutlierQuery>& queries,
    const std::vector<Batch>& batches, size_t kill_at,
    const std::string& label, uint64_t* reconnects_out) {
  std::vector<QueryResult> results;
  std::string error;

  ServerOptions standby_options;
  standby_options.window_type = window_type;
  standby_options.detector = detector;
  standby_options.standby = true;
  standby_options.promote_on_loss = true;
  SopServer standby(standby_options);
  EXPECT_TRUE(standby.Start(&error)) << label << ": " << error;
  if (!error.empty()) return results;

  ServerOptions primary_options;
  primary_options.window_type = window_type;
  primary_options.detector = detector;
  primary_options.replicate_host = "127.0.0.1";
  primary_options.replicate_port = standby.port();
  SopServer primary(primary_options);
  EXPECT_TRUE(primary.Start(&error)) << label << ": " << error;
  if (!error.empty()) return results;

  SopClient client;
  EXPECT_TRUE(client.Connect("127.0.0.1", primary.port(), &error))
      << label << ": " << error;
  if (!client.connected()) return results;
  ReconnectOptions ropt;
  ropt.endpoints = {{"127.0.0.1", primary.port()},
                    {"127.0.0.1", standby.port()}};
  ropt.ingest_replay = batches.size() + 1;
  client.EnableReconnect(ropt);

  std::map<int64_t, size_t> index_of;
  for (size_t i = 0; i < queries.size(); ++i) {
    const int64_t id = client.Subscribe(queries[i], &error);
    EXPECT_GT(id, 0) << label << ": " << error;
    if (id <= 0) return results;
    index_of[id] = i;
  }

  for (size_t i = 0; i < batches.size(); ++i) {
    if (i == kill_at) {
      // Replication is asynchronous to client acks: under CPU contention
      // the repl thread may not have shipped a single frame yet, and a
      // standby that never saw a replication connection has no loss to
      // promote on. Real deployments check replication lag before they
      // lean on a standby; do the same, then crash.
      EXPECT_TRUE(WaitUntil([&] {
        return standby.stats().last_boundary >= batches[i - 1].boundary;
      })) << label << ": standby never caught up to batch " << (i - 1);
      primary.Kill();
    }
    IngestAckMsg ack;
    EXPECT_TRUE(
        client.Ingest(batches[i].boundary, batches[i].points, &ack, &error))
        << label << " batch " << i << ": " << error;
    EXPECT_EQ(ack.accepted, batches[i].points.size())
        << label << " batch " << i;
    for (const EmissionMsg& e : client.TakeEmissions()) {
      EXPECT_TRUE(index_of.count(e.query_id) != 0)
          << label << ": emission for unknown query id " << e.query_id;
      if (index_of.count(e.query_id) == 0) continue;
      QueryResult r;
      r.query_index = index_of[e.query_id];
      r.boundary = e.boundary;
      r.outliers = e.outliers;
      results.push_back(std::move(r));
    }
  }
  *reconnects_out = client.reconnects();

  // The standby promoted itself and served the tail of the stream.
  EXPECT_EQ(standby.role(), ServerRole::kPrimary) << label;
  EXPECT_EQ(standby.stats().promotions, 1u) << label;
  if (standby.stats().promotions != 1u) {
    const ServerStats p = primary.stats();
    const ServerStats s = standby.stats();
    std::fprintf(stderr,
                 "[diag] %s: primary sent snap=%llu batch=%llu resync=%llu | "
                 "standby applied snap=%llu batch=%llu conns=%llu active=%llu "
                 "proto_err=%llu last_boundary=%lld\n",
                 label.c_str(),
                 (unsigned long long)p.repl_snapshots_sent,
                 (unsigned long long)p.repl_batches_sent,
                 (unsigned long long)p.repl_resyncs,
                 (unsigned long long)s.repl_snapshots_applied,
                 (unsigned long long)s.repl_batches_applied,
                 (unsigned long long)s.connections,
                 (unsigned long long)s.active_clients,
                 (unsigned long long)s.protocol_errors,
                 (long long)s.last_boundary);
  }
  standby.Stop();
  return results;
}

// --- failover equivalence ------------------------------------------------

// The HA contract: kill-the-primary -> standby promotion -> client
// reconnect is invisible in the emission stream. For every detector the
// factory knows, over both window types, the client's collected sequence
// must equal an uninterrupted run's — no duplicates, no gaps.
TEST(HaTest, FailoverMatchesUninterruptedRunEveryDetector) {
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
                  /*seed=*/11 + (time_windows ? 1 : 0));
    const std::vector<Batch> batches = Slice(workload, points);
    ASSERT_GT(batches.size(), 3u);

    for (const std::string& name : KnownDetectorNames()) {
      const std::string label =
          name + (time_windows ? "/time" : "/count") + " failover";
      std::unique_ptr<OutlierDetector> detector =
          CreateDetector(name, workload);
      std::vector<QueryResult> expected =
          CollectResults(workload, points, detector.get());

      uint64_t reconnects = 0;
      std::vector<QueryResult> actual =
          RunFailoverCycle(name, workload.window_type(), queries, batches,
                           batches.size() / 2, label, &reconnects);
      EXPECT_GE(reconnects, 1u) << label;
      ExpectNoDuplicates(actual, label);
      Canonicalize(&expected);
      Canonicalize(&actual);
      testing::ExpectSameResults(expected, actual, label);
    }
  }
}

// Two failovers in one stream: the primary crashes (standby promotes),
// then the promoted standby retires gracefully and a third server resumes
// from its final checkpoint — the client rides across both seams and the
// sequence stays exact.
TEST(HaTest, MultiCycleFailoverAcrossCheckpointHandoff) {
  const std::string path = ::testing::TempDir() + "sop_ha_cycle.checkpoint";
  std::remove(path.c_str());

  Workload workload(WindowType::kCount);
  const OutlierQuery q(1.5, 3, 80, 40);
  workload.AddQuery(q);
  const std::vector<Point> points = GenPoints(400, false, /*seed=*/55);
  const std::vector<Batch> batches = SliceCount(points, 40);
  ASSERT_EQ(batches.size(), 10u);
  std::unique_ptr<OutlierDetector> detector = CreateDetector("sop", workload);
  std::vector<QueryResult> expected =
      CollectResults(workload, points, detector.get());

  std::string error;
  ServerOptions standby_options;
  standby_options.standby = true;
  standby_options.promote_on_loss = true;
  standby_options.checkpoint_path = path;
  standby_options.checkpoint_every_batches = 1;
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
  client.EnableReconnect(ropt);
  const int64_t id = client.Subscribe(q, &error);
  ASSERT_GT(id, 0) << error;

  std::vector<QueryResult> actual;
  auto ingest = [&](size_t i) {
    IngestAckMsg ack;
    ASSERT_TRUE(
        client.Ingest(batches[i].boundary, batches[i].points, &ack, &error))
        << "batch " << i << ": " << error;
    ASSERT_EQ(ack.accepted, batches[i].points.size()) << "batch " << i;
    for (const EmissionMsg& e : client.TakeEmissions()) {
      ASSERT_EQ(e.query_id, id);
      QueryResult r;
      r.query_index = 0;
      r.boundary = e.boundary;
      r.outliers = e.outliers;
      actual.push_back(std::move(r));
    }
  };

  // Cycle 1: crash the primary; the standby promotes and serves. (Wait
  // out replication lag first — see RunFailoverCycle.)
  for (size_t i = 0; i < 4; ++i) ingest(i);
  ASSERT_TRUE(WaitUntil(
      [&] { return standby.stats().last_boundary >= batches[3].boundary; }));
  primary.Kill();
  for (size_t i = 4; i < 7; ++i) ingest(i);
  ASSERT_EQ(standby.role(), ServerRole::kPrimary);

  // Cycle 2: retire the promoted standby gracefully (final checkpoint),
  // bring up a third server from that checkpoint, and point the client at
  // it. Its handshake must resume the exact stream position.
  standby.Stop();
  EXPECT_GT(standby.stats().checkpoints, 0u);

  ServerOptions third_options;
  third_options.checkpoint_path = path;
  SopServer third(third_options);
  ASSERT_TRUE(third.Start(&error)) << error;
  EXPECT_TRUE(third.stats().resumed);
  EXPECT_EQ(third.stats().last_boundary, batches[6].boundary);

  ReconnectOptions ropt2;
  ropt2.endpoints = {{"127.0.0.1", third.port()}};
  client.EnableReconnect(ropt2);
  for (size_t i = 7; i < batches.size(); ++i) ingest(i);
  EXPECT_EQ(client.reconnects(), 2u);
  third.Stop();

  ExpectNoDuplicates(actual, "multi-cycle");
  Canonicalize(&expected);
  Canonicalize(&actual);
  testing::ExpectSameResults(expected, actual, "multi-cycle");
}

// --- exactly-once resume (no failover) -----------------------------------

// A subscriber that disconnects mid-stream and reconnects with its
// high-water mark receives exactly the emissions it missed — the
// concatenation of before-disconnect, replayed, and live emissions equals
// the uninterrupted sequence.
TEST(HaTest, ResumeReplaysExactlyTheMissedEmissions) {
  Workload workload(WindowType::kCount);
  const OutlierQuery q(1.5, 3, 100, 50);
  workload.AddQuery(q);
  const std::vector<Point> points = GenPoints(500, false, /*seed=*/41);
  const std::vector<Batch> batches = SliceCount(points, 50);
  ASSERT_EQ(batches.size(), 10u);
  std::unique_ptr<OutlierDetector> detector = CreateDetector("sop", workload);
  const std::vector<QueryResult> expected =
      CollectResults(workload, points, detector.get());

  ServerOptions options;
  SopServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // A second subscriber keeps the query registered (and the resume ring
  // filling) while the client under test is away.
  SopClient listener;
  ASSERT_TRUE(listener.Connect("127.0.0.1", server.port(), &error)) << error;
  ASSERT_GT(listener.Subscribe(q, &error), 0) << error;

  std::vector<QueryResult> actual;
  auto collect = [&actual](SopClient* c) {
    for (const EmissionMsg& e : c->TakeEmissions()) {
      QueryResult r;
      r.query_index = 0;
      r.boundary = e.boundary;
      r.outliers = e.outliers;
      actual.push_back(std::move(r));
    }
  };

  int64_t hwm = kNoResume;
  {
    SopClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
    const int64_t id = client.Subscribe(q, &error);
    ASSERT_GT(id, 0) << error;
    for (size_t i = 0; i < 5; ++i) {
      IngestAckMsg ack;
      ASSERT_TRUE(client.Ingest(batches[i].boundary, batches[i].points, &ack,
                                &error))
          << error;
      ASSERT_EQ(ack.accepted, batches[i].points.size());
      collect(&client);
    }
    hwm = client.high_water(id);
    client.Close();
  }
  ASSERT_NE(hwm, kNoResume);
  EXPECT_EQ(hwm, batches[4].boundary);

  // The stream moves on without the client under test.
  {
    SopClient other;
    ASSERT_TRUE(other.Connect("127.0.0.1", server.port(), &error)) << error;
    for (size_t i = 5; i < 8; ++i) {
      IngestAckMsg ack;
      ASSERT_TRUE(other.Ingest(batches[i].boundary, batches[i].points, &ack,
                               &error))
          << error;
      ASSERT_EQ(ack.accepted, batches[i].points.size());
    }
  }

  // Resume: the three missed emissions replay ahead of the ack; live
  // delivery continues seamlessly after them.
  SopClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  const int64_t id = client.Subscribe(q, hwm, &error);
  ASSERT_GT(id, 0) << error;
  EXPECT_EQ(client.last_replayed(), 3u);
  EXPECT_FALSE(client.last_gap());
  collect(&client);
  for (size_t i = 8; i < batches.size(); ++i) {
    IngestAckMsg ack;
    ASSERT_TRUE(
        client.Ingest(batches[i].boundary, batches[i].points, &ack, &error))
        << error;
    ASSERT_EQ(ack.accepted, batches[i].points.size());
    collect(&client);
  }
  server.Stop();

  ExpectNoDuplicates(actual, "resume");
  testing::ExpectSameResults(expected, actual, "resume");
  EXPECT_EQ(server.stats().resume_replayed, 3u);
  EXPECT_EQ(server.stats().resume_gaps, 0u);
}

// Resuming from a boundary the ring no longer reaches is answered
// honestly: the ack carries `gap`, the covered suffix still replays, and
// the next live emission is flagged degraded so the loss is visible.
TEST(HaTest, ResumePastRingReachReportsGapAndDegrades) {
  Workload workload(WindowType::kCount);
  const OutlierQuery q(1.5, 3, 64, 32);
  workload.AddQuery(q);
  const std::vector<Point> points = GenPoints(320, false, /*seed=*/61);
  const std::vector<Batch> batches = SliceCount(points, 32);
  ASSERT_EQ(batches.size(), 10u);

  ServerOptions options;
  options.resume_ring = 2;  // tiny: the ring wraps after two emissions
  SopServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  SopClient listener;
  ASSERT_TRUE(listener.Connect("127.0.0.1", server.port(), &error)) << error;
  ASSERT_GT(listener.Subscribe(q, &error), 0) << error;

  int64_t hwm = kNoResume;
  {
    SopClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
    const int64_t id = client.Subscribe(q, &error);
    ASSERT_GT(id, 0) << error;
    for (size_t i = 0; i < 2; ++i) {
      IngestAckMsg ack;
      ASSERT_TRUE(client.Ingest(batches[i].boundary, batches[i].points, &ack,
                                &error))
          << error;
      ASSERT_EQ(ack.accepted, batches[i].points.size());
    }
    hwm = client.high_water(id);
    client.Close();
  }
  ASSERT_EQ(hwm, batches[1].boundary);

  {
    SopClient other;
    ASSERT_TRUE(other.Connect("127.0.0.1", server.port(), &error)) << error;
    for (size_t i = 2; i < 8; ++i) {
      IngestAckMsg ack;
      ASSERT_TRUE(other.Ingest(batches[i].boundary, batches[i].points, &ack,
                               &error))
          << error;
      ASSERT_EQ(ack.accepted, batches[i].points.size());
    }
  }

  // Ring now holds only batches 6 and 7; everything from 2..5 is gone.
  SopClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  const int64_t id = client.Subscribe(q, hwm, &error);
  ASSERT_GT(id, 0) << error;
  EXPECT_TRUE(client.last_gap());
  EXPECT_EQ(client.last_replayed(), 2u);
  std::vector<EmissionMsg> replayed = client.TakeEmissions();
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].boundary, batches[6].boundary);
  EXPECT_EQ(replayed[1].boundary, batches[7].boundary);

  // The first live emission after the gap is flagged; the next is clean.
  IngestAckMsg ack;
  ASSERT_TRUE(
      client.Ingest(batches[8].boundary, batches[8].points, &ack, &error))
      << error;
  std::vector<EmissionMsg> live = client.TakeEmissions();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].boundary, batches[8].boundary);
  EXPECT_TRUE(live[0].degraded);
  ASSERT_TRUE(
      client.Ingest(batches[9].boundary, batches[9].points, &ack, &error))
      << error;
  live = client.TakeEmissions();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_FALSE(live[0].degraded);
  server.Stop();
  EXPECT_EQ(server.stats().resume_gaps, 1u);
}

// --- graceful stop -------------------------------------------------------

/// Minimal frame-level peer for the tests that need to control exactly
/// what bytes hit the wire (and when they stop being read).
struct RawConn {
  Socket sock;
  FrameDecoder decoder;

  bool ReadFrame(std::string* payload) {
    std::string error;
    char buf[4096];
    while (true) {
      switch (decoder.Next(payload, &error)) {
        case FrameDecoder::Status::kFrame:
          return true;
        case FrameDecoder::Status::kError:
          return false;
        case FrameDecoder::Status::kNeedMore:
          break;
      }
      const int64_t n = RecvSome(sock, buf, sizeof buf, &error);
      if (n <= 0) return false;
      decoder.Append(buf, static_cast<size_t>(n));
    }
  }
};

// Stop() must not strand emissions already routed to a subscriber that has
// not read them yet: the send queues drain to the sockets before close,
// and the final checkpoint lands.
TEST(HaTest, GracefulStopDrainsQueuedEmissionsAndCheckpoints) {
  const std::string path = ::testing::TempDir() + "sop_ha_drain.checkpoint";
  std::remove(path.c_str());
  const OutlierQuery q(1.5, 3, 64, 32);
  const std::vector<Point> points = GenPoints(128, false, /*seed=*/71);
  const std::vector<Batch> batches = SliceCount(points, 32);
  ASSERT_EQ(batches.size(), 4u);

  ServerOptions options;
  options.checkpoint_path = path;
  options.checkpoint_every_batches = 1000;  // only the final checkpoint
  SopServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // A frame-level subscriber that handshakes, subscribes, then stops
  // reading entirely — its emissions pile up server-side.
  RawConn sub;
  sub.sock = ConnectTcp("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(sub.sock.valid()) << error;
  ASSERT_TRUE(SendAll(sub.sock, Encode(HelloMsg{}), &error)) << error;
  std::string payload;
  ASSERT_TRUE(sub.ReadFrame(&payload));
  SubscribeMsg smsg;
  smsg.query = q;
  ASSERT_TRUE(SendAll(sub.sock, Encode(smsg), &error)) << error;
  ASSERT_TRUE(sub.ReadFrame(&payload));
  MsgType type = MsgType::kError;
  ASSERT_TRUE(PeekType(payload, &type, &error)) << error;
  ASSERT_EQ(type, MsgType::kSubscribeAck);

  SopClient ingester;
  ASSERT_TRUE(ingester.Connect("127.0.0.1", server.port(), &error)) << error;
  for (const Batch& b : batches) {
    IngestAckMsg ack;
    ASSERT_TRUE(ingester.Ingest(b.boundary, b.points, &ack, &error)) << error;
    ASSERT_EQ(ack.accepted, b.points.size());
    EXPECT_EQ(ack.emissions, 0u);  // all routed to the raw subscriber
  }

  server.Stop();
  EXPECT_GT(server.stats().checkpoints, 0u);
  EXPECT_EQ(server.stats().emissions, batches.size());
  EXPECT_EQ(server.stats().shed_emissions, 0u);

  // Every queued emission was written out before the close.
  size_t emissions = 0;
  while (sub.ReadFrame(&payload)) {
    ASSERT_TRUE(PeekType(payload, &type, &error)) << error;
    if (type != MsgType::kEmission) continue;
    EmissionMsg e;
    ASSERT_TRUE(Decode(payload, &e, &error)) << error;
    EXPECT_EQ(e.boundary, batches[emissions].boundary);
    ++emissions;
  }
  EXPECT_EQ(emissions, batches.size());

  // The final checkpoint carries the exact stop position.
  SopServer restarted(options);
  ASSERT_TRUE(restarted.Start(&error)) << error;
  EXPECT_TRUE(restarted.stats().resumed);
  EXPECT_EQ(restarted.stats().last_boundary, batches.back().boundary);
  restarted.Stop();
  std::remove(path.c_str());
}

// --- idle timeout --------------------------------------------------------

// A connection stalled mid-frame past the idle timeout is disconnected
// (slow-loris defense); a quiet connection with no partial frame pending
// is left alone indefinitely.
TEST(HaTest, IdleTimeoutDisconnectsMidFrameStallsOnly) {
  ServerOptions options;
  options.idle_timeout_ms = 100;
  SopServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Slow loris: half a frame, then silence.
  RawConn loris;
  loris.sock = ConnectTcp("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(loris.sock.valid()) << error;
  const std::string frame = Encode(PingMsg{});
  ASSERT_TRUE(SendAll(loris.sock, frame.substr(0, frame.size() / 2), &error))
      << error;
  ASSERT_TRUE(WaitUntil(
      [&] { return server.stats().idle_disconnects >= 1; }));
  // The server hung up on it.
  char buf[64];
  int64_t n;
  do {
    n = RecvSome(loris.sock, buf, sizeof buf, &error);
  } while (n > 0);
  EXPECT_LE(n, 0);

  // The quiet-but-healthy half (a client idle well past the timeout with
  // no partial frame pending is never timed out) lives in
  // SimTest.IdleTimeoutFiresOnVirtualClockOnly, where a virtual hour of
  // idleness costs no wall time. Here: a fresh client is served fine
  // after the loris was dropped, and only the loris was dropped.
  SopClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  EXPECT_GT(client.Subscribe(OutlierQuery(1.0, 2, 100, 50), &error), 0)
      << error;
  server.Stop();
  EXPECT_EQ(server.stats().idle_disconnects, 1u);
}

// --- health plane --------------------------------------------------------

// kPing answers from both roles with the truth: role, stream position,
// queue depths — and a standby refuses ingest and subscriptions with a
// diagnostic until promoted.
TEST(HaTest, PingReportsRoleAndPositionStandbyRefusesWrites) {
  std::string error;
  ServerOptions standby_options;
  standby_options.standby = true;  // no promote_on_loss: stays standby
  SopServer standby(standby_options);
  ASSERT_TRUE(standby.Start(&error)) << error;

  ServerOptions primary_options;
  primary_options.replicate_host = "127.0.0.1";
  primary_options.replicate_port = standby.port();
  SopServer primary(primary_options);
  ASSERT_TRUE(primary.Start(&error)) << error;

  SopClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", primary.port(), &error)) << error;
  EXPECT_EQ(client.server_info().role,
            static_cast<uint32_t>(ServerRole::kPrimary));
  PongMsg pong;
  ASSERT_TRUE(client.Ping(&pong, &error)) << error;
  EXPECT_EQ(pong.role, static_cast<uint32_t>(ServerRole::kPrimary));
  EXPECT_EQ(pong.last_boundary, kNoResume);

  const std::vector<Point> points = GenPoints(32, false, /*seed=*/83);
  IngestAckMsg ack;
  ASSERT_TRUE(client.Ingest(32, points, &ack, &error)) << error;
  ASSERT_EQ(ack.accepted, points.size());
  ASSERT_TRUE(client.Ping(&pong, &error)) << error;
  EXPECT_EQ(pong.last_boundary, 32);
  EXPECT_GE(pong.active_connections, 1u);

  // The standby answers health probes too, reports its role, and tracks
  // the replicated stream position.
  SopClient probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", standby.port(), &error)) << error;
  EXPECT_EQ(probe.server_info().role,
            static_cast<uint32_t>(ServerRole::kStandby));
  ASSERT_TRUE(WaitUntil(
      [&] { return standby.stats().repl_batches_applied >= 1; }));
  ASSERT_TRUE(probe.Ping(&pong, &error)) << error;
  EXPECT_EQ(pong.role, static_cast<uint32_t>(ServerRole::kStandby));
  EXPECT_EQ(pong.last_boundary, 32);

  // Writes are refused while standing by — with a diagnostic, not a
  // dropped connection.
  EXPECT_EQ(probe.Subscribe(OutlierQuery(1.0, 2, 100, 50), &error), 0);
  EXPECT_NE(error.find("standby"), std::string::npos) << error;
  ASSERT_TRUE(probe.Ingest(64, points, &ack, &error)) << error;
  EXPECT_EQ(ack.accepted, 0u);
  const std::vector<ErrorMsg> errors = probe.TakeErrors();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].message.find("standby"), std::string::npos);
  EXPECT_TRUE(probe.connected());

  primary.Stop();
  // That the standby KEEPS standing by after the primary is gone for good
  // is asserted across minutes of virtual time in
  // SimTest.StandbyWithoutPromotionStaysStandbyOnVirtualClock — no
  // wall-clock wait here.
  standby.Stop();
}

// --- replication input rules ---------------------------------------------

// A standby applies a replicated batch only if the primary's session could
// have accepted it. A crafted kReplBatch whose points have two
// dimensionalities, or a time regression under time windows, is refused:
// the standby counts a protocol error, asks for a snapshot and applies
// nothing. It keeps answering, and a real primary's replication applies
// afterwards.
TEST(HaTest, StandbyRefusesReplBatchesThatBreakTheStreamRules) {
  std::string error;
  ServerOptions standby_options;
  standby_options.window_type = WindowType::kTime;
  standby_options.standby = true;
  SopServer standby(standby_options);
  ASSERT_TRUE(standby.Start(&error)) << error;

  RawConn raw;
  raw.sock = ConnectTcp("127.0.0.1", standby.port(), &error);
  ASSERT_TRUE(raw.sock.valid()) << error;
  const std::vector<std::vector<Point>> crafted = {
      {Point(0, 1, {1.0}), Point(0, 2, {1.0, 2.0})},  // two dimensionalities
      {Point(0, 3, {1.0}), Point(0, 2, {1.0})},       // time regression
  };
  for (const std::vector<Point>& points : crafted) {
    ReplBatchMsg batch;
    batch.prev_boundary = kNoResume;  // chains onto the empty standby
    batch.boundary = 20;
    batch.points = points;
    ASSERT_TRUE(SendAll(raw.sock, Encode(batch), &error)) << error;
    std::string payload;
    ASSERT_TRUE(raw.ReadFrame(&payload));
    ReplAckMsg ack;
    ASSERT_TRUE(Decode(payload, &ack, &error)) << error;
    EXPECT_TRUE(ack.need_snapshot);
    EXPECT_EQ(ack.boundary, kNoResume);
  }
  EXPECT_EQ(standby.stats().repl_batches_applied, 0u);
  EXPECT_EQ(standby.stats().protocol_errors, crafted.size());
  EXPECT_EQ(standby.stats().last_boundary, kNoResume);

  SopClient probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", standby.port(), &error)) << error;
  PongMsg pong;
  ASSERT_TRUE(probe.Ping(&pong, &error)) << error;
  EXPECT_EQ(pong.role, static_cast<uint32_t>(ServerRole::kStandby));
  EXPECT_EQ(pong.last_boundary, kNoResume);

  ServerOptions primary_options;
  primary_options.window_type = WindowType::kTime;
  primary_options.replicate_host = "127.0.0.1";
  primary_options.replicate_port = standby.port();
  SopServer primary(primary_options);
  ASSERT_TRUE(primary.Start(&error)) << error;
  SopClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", primary.port(), &error)) << error;
  const std::vector<Batch> batches =
      SliceTime(GenPoints(64, true, /*seed=*/89), 20);
  ASSERT_GE(batches.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    IngestAckMsg ack;
    ASSERT_TRUE(
        client.Ingest(batches[i].boundary, batches[i].points, &ack, &error))
        << error;
    ASSERT_EQ(ack.accepted, batches[i].points.size());
  }
  EXPECT_TRUE(WaitUntil([&] {
    return standby.stats().last_boundary == batches[1].boundary;
  }));
  EXPECT_GE(standby.stats().repl_batches_applied, 1u);
  primary.Stop();
  standby.Stop();
}

}  // namespace
}  // namespace net
}  // namespace sop
