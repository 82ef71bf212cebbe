// Deterministic simulation harness for the serving planes (DESIGN.md
// Sec. 18): an in-memory Transport plus a virtual Clock that SopServer,
// SopClient and SopRouter run on unmodified.
//
// SimNet implements net::Transport with in-process duplex byte channels.
// Every Send() call is one SEGMENT, and a seeded per-channel scheduler
// decides each segment's fate at send time from a schedule DSL of fault
// rules: one-way drops, duplications, reorderings, latency spikes, and
// mid-frame truncation at a chosen byte offset. Port-level partitions drop
// all traffic silently and refuse new connections until healed. Because
// each channel's random stream is derived from (harness seed, server port,
// connection serial, direction) and consumed once per segment, a schedule
// replays bit-identically from its seed: the same run produces the same
// corruption at the same byte, and therefore the same observable
// divergence.
//
// VirtualClock implements sop::Clock over the same monitor: SleepMicros
// advances simulated time instantly (so every backoff schedule in the
// stack runs at full speed), and Recv deadlines — the idle-timeout and
// replication-ack paths — are evaluated against simulated time, released
// by AdvanceMicros() from the test driver. Threads are still real; the
// clock never blocks them on wall time.
//
// Liveness caveats, by design:
//   * a DROPPED segment silently desyncs the byte stream — the receiver
//     only notices at the next segment (CRC/framing loss poisons the
//     connection). Dropping the final segment of a request/response
//     exchange leaves the peer blocked forever, exactly like a real
//     one-way partition under TCP; pair drops with cuts or schedule them
//     on channels with continued traffic.
//   * a PARTITIONED port swallows sends without error. Use it against
//     paths that carry their own deadline (replication acks) or pair it
//     with a truncation cut so the victim's peer fails fast.
//
// Scoping: construct a SimNet, arm it with ScopedSim for the lifetime of
// every server/client/router under test, and tear those down before the
// scope exits.

#ifndef SOP_SIM_SIM_H_
#define SOP_SIM_SIM_H_

#include <cstdint>
#include <memory>
#include <string>

#include "sop/common/clock.h"
#include "sop/net/transport.h"

namespace sop {
namespace sim {

/// One schedule rule. Rules are matched in insertion order against each
/// outbound segment; the first rule that (a) matches the channel, (b) has
/// skipped its first `skip_segments` segments, (c) has applications left,
/// and (d) passes its seeded rate draw, is applied.
struct FaultRule {
  enum class Action {
    kDrop,       // segment vanishes (stream desync; see file comment)
    kDuplicate,  // segment delivered twice back-to-back
    kReorder,    // segment held back and delivered after its successor
    kDelay,      // segment delivered `delay_us` later in simulated time
    kTruncate,   // first `truncate_at` bytes delivered, then the
                 // connection is cut in both directions (mid-frame cut)
  };

  Action action = Action::kDrop;
  /// Matched against the server-side (listener) port; 0 matches any.
  int dst_port = 0;
  /// +1: client->server segments only; -1: server->client; 0: both.
  int direction = 0;
  /// Per-segment application probability; >= 1.0 is deterministic.
  double rate = 1.0;
  /// Leave the first N segments of each matching channel untouched
  /// (e.g. skip the handshake).
  uint64_t skip_segments = 0;
  /// Total applications across all channels; UINT64_MAX = unlimited.
  uint64_t max_applications = UINT64_MAX;
  /// kDelay: simulated delivery latency.
  int64_t delay_us = 0;
  /// kTruncate: bytes of the segment delivered before the cut.
  size_t truncate_at = 0;
};

/// Monotonic counters since construction.
struct SimStats {
  uint64_t connects = 0;          // established connections
  uint64_t refused_connects = 0;  // no listener, closed, or partitioned
  uint64_t segments = 0;          // Send() calls observed
  uint64_t delivered = 0;         // segments enqueued for the receiver
  uint64_t dropped = 0;           // rule drops
  uint64_t partition_dropped = 0; // segments swallowed by a partition
  uint64_t duplicated = 0;
  uint64_t reordered = 0;
  uint64_t delayed = 0;
  uint64_t truncated = 0;
};

/// The simulated transport + virtual clock. Thread-safe.
class SimNet : public net::Transport {
 public:
  explicit SimNet(uint64_t seed);
  ~SimNet() override;

  SimNet(const SimNet&) = delete;
  SimNet& operator=(const SimNet&) = delete;

  // net::Transport:
  std::unique_ptr<net::TransportListener> Listen(const std::string& host,
                                                 int port, int backlog,
                                                 std::string* error) override;
  std::unique_ptr<net::TransportConn> Connect(const std::string& host,
                                              int port,
                                              std::string* error) override;

  /// The virtual clock sharing this harness's monitor. Arm it alongside
  /// the transport (ScopedSim does both).
  Clock* clock();

  /// Simulated time now, microseconds.
  int64_t NowMicros();

  /// Advances simulated time, waking every deadline and delayed segment
  /// it passes. The driver's lever for timeout paths.
  void AdvanceMicros(int64_t us);
  void AdvanceMillis(int64_t ms) { AdvanceMicros(ms * 1000); }

  /// Appends a schedule rule (see FaultRule).
  void AddRule(const FaultRule& rule);
  void ClearRules();

  /// Partitions `port`: segments to and from its connections are silently
  /// swallowed and new connections are refused, until Heal(port).
  void Partition(int port);
  void Heal(int port);

  /// Cuts every live connection whose server side is `port`, immediately
  /// and in both directions — what a yanked cable looks like to both
  /// peers. Pair with Partition(port) for a full outage: peers fail fast
  /// on the cut instead of blocking on swallowed segments, and cannot
  /// reconnect until Heal(port).
  void CutConnections(int port);

  SimStats stats() const;

  /// Opaque shared state (public so the sim.cc endpoint classes can name
  /// it; there is nothing to call on it from outside).
  struct Impl;

 private:
  std::shared_ptr<Impl> impl_;
  std::shared_ptr<Clock> clock_;  // created lazily under the impl monitor
};

/// Arms `sim` as the process transport and its virtual clock as the
/// process clock for the current scope.
class ScopedSim {
 public:
  explicit ScopedSim(SimNet* sim)
      : transport_(sim), clock_(sim->clock()) {}

  ScopedSim(const ScopedSim&) = delete;
  ScopedSim& operator=(const ScopedSim&) = delete;

 private:
  net::ScopedTransport transport_;
  ScopedClock clock_;
};

}  // namespace sim
}  // namespace sop

#endif  // SOP_SIM_SIM_H_
