// net::Frontend: the one connection front under SopServer and SopRouter.
//
// A front owns everything between a listening socket and its owner's
// message dispatch:
//
//   accept      one thread accepts connections and registers each before
//               its reader can dispatch a frame,
//   read        one reader thread per connection decodes frames
//               (FrameDecoder) and hands each to the owner; a connection
//               stalled mid-frame past `idle_timeout_ms` is dropped
//               (slow-loris defense), a quiet one never is,
//   write       one writer thread per connection drains its FIFO send
//               queue; a send failure closes the connection,
//   send rule   control replies bypass the queue bound (they are
//               request-paced); emissions respect it under
//               `send_policy`: kBlock waits for room, kDropOldest sheds
//               the oldest queued emission and flags the connection
//               `degraded_pending`,
//   close       one close path, from any thread: the connection is marked
//               closing, its socket shut, and its subscriptions handed to
//               the owner's OnClose exactly once,
//   reaping     a connection whose reader and writer have both returned
//               is joined and dropped when the next one is accepted, so a
//               long-lived front holds threads only for live connections,
//   teardown    graceful drain (StopReading, then DrainWriters: queued
//               frames reach their peers, bounded by a deadline) or Abort
//               (every connection closed at once). Each owner keeps its
//               own shutdown order around these steps.
//
// The front records its registry metrics under its owner's
// `metrics_prefix` while obs is enabled; the always-on counts are in
// stats(). Owners implement FrontHandler: they get each frame, each
// close, and the start of teardown.

#ifndef SOP_NET_FRONTEND_H_
#define SOP_NET_FRONTEND_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sop/net/socket.h"

namespace sop {

/// What a full per-connection send queue does with one more emission.
enum class OverloadPolicy {
  kBlock,       // backpressure: the sender waits (lossless)
  kDropOldest,  // shed the oldest queued emission (bounded latency, lossy)
};

namespace net {

/// One client connection. The front owns its socket, threads and send
/// queue; the owner keeps its per-connection state in the fields below,
/// guarded by `mu`.
struct FrontConn {
  explicit FrontConn(Socket s) : sock(std::move(s)) {}

  std::mutex mu;
  // Query id -> suppress boundary: live emissions at or below it were
  // already delivered (by resume replay) and must not repeat; kNoResume
  // suppresses nothing. Handed to the owner's OnClose when the connection
  // closes.
  std::map<int64_t, int64_t> subs;  // guarded by mu
  // An emission to this connection was shed (or its resume had a gap):
  // the next delivered emission carries degraded=true.
  bool degraded_pending = false;    // guarded by mu
  bool closing = false;             // guarded by mu; set by the front

 private:
  friend class Frontend;
  struct Outgoing {
    std::string frame;
    bool droppable;  // emissions may be shed; control replies never
  };
  Socket sock;
  std::condition_variable cv_push;  // writer waits: queue non-empty/closing
  std::condition_variable cv_pop;   // kBlock senders wait: queue has room
  std::condition_variable cv_done;  // DrainWriters waits: writer_done
  std::deque<Outgoing> sendq;       // guarded by mu
  bool reader_done = false;         // guarded by mu
  bool writer_done = false;         // guarded by mu
  std::thread reader;
  std::thread writer;
};

using FrontConnPtr = std::shared_ptr<FrontConn>;

/// What an owner does with its connections' traffic. Called on the
/// front's threads.
class FrontHandler {
 public:
  virtual ~FrontHandler() = default;
  /// One CRC-verified frame payload from `conn`, on its reader thread.
  /// False drops the connection.
  virtual bool OnFrame(const FrontConnPtr& conn,
                       const std::string& payload) = 0;
  /// `conn` lost its framing (`error` says why); the front drops the
  /// connection after this returns.
  virtual void OnFramingError(const FrontConnPtr& conn,
                              const std::string& error) = 0;
  /// `conn` closed; `subs` is what its `subs` map held. Once per
  /// connection, on whichever thread closed it.
  virtual void OnClose(const FrontConnPtr& conn,
                       std::map<int64_t, int64_t> subs) = 0;
  /// Teardown began (StopReading or Abort): release every reader blocked
  /// in the owner's code (a full ingest queue, say) so the front can join
  /// it. Called once, before the front stops accepting.
  virtual void OnTeardown() = 0;
};

class Frontend {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;  // 0 binds an ephemeral port
    /// Per-connection send queue bound (frames) and full-queue policy.
    size_t max_send_queue = 256;
    OverloadPolicy send_policy = OverloadPolicy::kBlock;
    /// Drop a connection stalled mid-frame this long (ms); -1 disables.
    int idle_timeout_ms = -1;
    /// Registry name prefix of the front's obs metrics (connections,
    /// disconnects, frames_in/out, bytes_in/out, shed_emissions,
    /// idle_disconnects; gauges active_clients, send_queue_depth). Each
    /// is bound on first use while obs is enabled, so the front registers
    /// only what it records. Empty records none.
    std::string metrics_prefix;
  };

  /// Always-on counts since Start (obs may be compiled out).
  struct Stats {
    uint64_t connections = 0;  // accepted, lifetime
    uint64_t active = 0;       // accepted and not yet closed
    uint64_t frames_in = 0;
    uint64_t frames_out = 0;
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
    uint64_t shed_emissions = 0;
    uint64_t idle_disconnects = 0;
  };

  Frontend(Options options, FrontHandler* handler);
  /// Aborts a front its owner did not stop.
  ~Frontend();

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Binds the listener and starts accepting. False with `*error` set on
  /// bind failure.
  bool Start(int* bound_port, std::string* error);

  /// Queues one frame for `conn`'s writer under the send rule (file
  /// comment). False if it was not queued: the connection is closing.
  bool Send(const FrontConnPtr& conn, std::string frame, bool droppable);

  /// The one close path (file comment). Idempotent; any thread.
  void Close(const FrontConnPtr& conn);

  /// The registered connections, closed ones included until reaped.
  std::vector<FrontConnPtr> Connections() const;

  /// Frames queued across every connection (what kPong reports).
  uint64_t SendQueueDepth() const;

  Stats stats() const;

  // --- teardown ----------------------------------------------------------

  /// Graceful drain, step 1: stop accepting, shut every connection's read
  /// side and join the readers. They wake with an orderly EOF and exit
  /// without closing their connection, so queued outbound frames survive.
  void StopReading();
  /// Step 2: writers drain their queues and exit. A peer that has not
  /// read its frames by `deadline` is cut off. Joins every writer.
  void DrainWriters(std::chrono::steady_clock::time_point deadline);

  /// Stops accepting, closes every connection and joins every thread,
  /// dropping whatever is queued.
  void Abort();

 private:
  void AcceptLoop();
  void ReaderLoop(const FrontConnPtr& conn);
  void WriterLoop(const FrontConnPtr& conn);
  void StopAccepting();

  const Options options_;
  FrontHandler* const handler_;
  Socket listener_;
  // Set once teardown begins: the accept loop exits, and a reader that
  // ends stops short of closing its connection (StopReading's contract).
  // Teardown's first step (StopAccepting) runs once.
  std::atomic<bool> stopping_{false};

  mutable std::mutex conns_mu_;
  std::vector<FrontConnPtr> conns_;  // guarded by conns_mu_

  struct Counters;
  std::unique_ptr<Counters> counters_;
  std::thread accept_thread_;
};

}  // namespace net
}  // namespace sop

#endif  // SOP_NET_FRONTEND_H_
