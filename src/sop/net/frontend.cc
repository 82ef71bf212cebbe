#include "sop/net/frontend.h"

#include <utility>

#include "sop/net/protocol.h"

namespace sop {
namespace net {

namespace {

// One listen backlog for every front.
constexpr int kListenBacklog = 128;

// Counts one event (or `n` bytes) on an always-on counter.
void Add(std::atomic<uint64_t>& counter, uint64_t n = 1) {
  counter.fetch_add(n, std::memory_order_relaxed);
}

uint64_t Load(const std::atomic<uint64_t>& counter) {
  return counter.load(std::memory_order_relaxed);
}

}  // namespace

Frontend::Frontend(Options options, FrontHandler* handler)
    : options_(std::move(options)), handler_(handler) {}

Frontend::~Frontend() { Abort(); }

bool Frontend::Start(int* bound_port, std::string* error) {
  listener_ = ListenTcp(options_.host, options_.port, kListenBacklog,
                        bound_port, error);
  if (!listener_.valid()) return false;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

bool Frontend::Send(const FrontConnPtr& conn, std::string frame,
                    bool droppable) {
  std::unique_lock<std::mutex> lock(conn->mu);
  if (conn->closing) return false;
  if (droppable && conn->sendq.size() >= options_.max_send_queue) {
    if (options_.send_policy == OverloadPolicy::kDropOldest) {
      // Shed the oldest queued emission; never a control reply.
      for (auto it = conn->sendq.begin(); it != conn->sendq.end(); ++it) {
        if (it->droppable) {
          conn->sendq.erase(it);
          conn->degraded_pending = true;
          Add(counters_.shed_emissions);
          break;
        }
      }
    } else {
      // kBlock: lossless backpressure into the sender.
      conn->cv_pop.wait(lock, [&] {
        return conn->closing || conn->sendq.size() < options_.max_send_queue;
      });
      if (conn->closing) return false;
    }
  }
  conn->sendq.push_back(FrontConn::Outgoing{std::move(frame), droppable});
  conn->cv_push.notify_one();
  return true;
}

void Frontend::Close(const FrontConnPtr& conn) {
  std::map<int64_t, int64_t> subs;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closing) return;
    conn->closing = true;
    subs.swap(conn->subs);
    conn->cv_push.notify_all();
    conn->cv_pop.notify_all();
  }
  conn->sock.ShutdownBoth();  // unblocks recv/send in reader/writer
  Add(counters_.disconnects);
  handler_->OnClose(conn, std::move(subs));
}

std::vector<FrontConnPtr> Frontend::Connections() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_;
}

uint64_t Frontend::SendQueueDepth() const {
  uint64_t depth = 0;
  for (const FrontConnPtr& conn : Connections()) {
    std::lock_guard<std::mutex> lock(conn->mu);
    depth += conn->sendq.size();
  }
  return depth;
}

Frontend::Stats Frontend::stats() const {
  const Counters& c = counters_;
  Stats s;
  s.connections = Load(c.connections);
  // Every accepted connection counts one connection, and its close one
  // disconnect; a connection still open at a graceful drain never closes.
  s.active = s.connections - Load(c.disconnects);
  s.frames_in = Load(c.frames_in);
  s.frames_out = Load(c.frames_out);
  s.bytes_in = Load(c.bytes_in);
  s.bytes_out = Load(c.bytes_out);
  s.shed_emissions = Load(c.shed_emissions);
  s.idle_disconnects = Load(c.idle_disconnects);
  return s;
}

void Frontend::WriterLoop(const FrontConnPtr& conn) {
  for (;;) {
    FrontConn::Outgoing out;
    {
      std::unique_lock<std::mutex> lock(conn->mu);
      conn->cv_push.wait(lock,
                         [&] { return conn->closing || !conn->sendq.empty(); });
      // Drain queued frames even when closing: a graceful stop expects
      // in-flight acks to reach clients before the socket goes down — but
      // a writer stuck on a dead peer still exits via the send failure.
      if (conn->sendq.empty()) break;
      out = std::move(conn->sendq.front());
      conn->sendq.pop_front();
      conn->cv_pop.notify_one();
    }
    std::string error;
    if (!SendAll(conn->sock, out.frame, &error)) {
      Close(conn);
      break;
    }
    Add(counters_.frames_out);
    Add(counters_.bytes_out, out.frame.size());
  }
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->writer_done = true;
  }
  conn->cv_done.notify_all();
}

void Frontend::ReaderLoop(const FrontConnPtr& conn) {
  FrameDecoder decoder;
  char buf[64 << 10];
  bool drop = false;
  bool timed_out = false;
  while (!drop) {
    std::string error;
    const int64_t n = RecvSomeTimeout(conn->sock, buf, sizeof(buf),
                                      options_.idle_timeout_ms, &error);
    if (n == kRecvTimedOut) {
      // Only a mid-frame stall is hostile (slow-loris); a connection with
      // no partial frame pending is just a quiet subscriber.
      if (decoder.buffered_bytes() == 0) continue;
      Add(counters_.idle_disconnects);
      timed_out = true;
      break;
    }
    if (n <= 0) break;  // orderly close or hard error
    Add(counters_.bytes_in, static_cast<uint64_t>(n));
    decoder.Append(buf, static_cast<size_t>(n));
    std::string payload;
    while (!drop) {
      const FrameDecoder::Status status = decoder.Next(&payload, &error);
      if (status == FrameDecoder::Status::kNeedMore) break;
      if (status == FrameDecoder::Status::kError) {
        // Framing lost: this connection cannot resync. The owner says why
        // (best effort); every other connection stays up.
        handler_->OnFramingError(conn, error);
        drop = true;
      } else {
        Add(counters_.frames_in);
        drop = !handler_->OnFrame(conn, payload);
      }
    }
  }
  // A reader that ends during a graceful drain (its read side was shut)
  // must NOT close the connection: the writer is still draining queued
  // frames. Every other exit closes as usual.
  if (!stopping_.load(std::memory_order_relaxed) || timed_out) Close(conn);
  std::lock_guard<std::mutex> lock(conn->mu);
  conn->reader_done = true;
}

void Frontend::AcceptLoop() {
  for (;;) {
    std::string error;
    Socket sock = AcceptTcp(listener_, &error);
    if (stopping_.load(std::memory_order_relaxed)) return;
    if (!sock.valid()) continue;  // transient accept failure; keep serving
    auto conn = std::make_shared<FrontConn>(std::move(sock));
    Add(counters_.connections);
    // Reap first: a connection whose reader and writer have both returned
    // is joined (immediately: the threads are done) and dropped.
    std::vector<FrontConnPtr> reaped;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      std::erase_if(conns_, [&](const FrontConnPtr& c) {
        std::lock_guard<std::mutex> conn_lock(c->mu);
        if (!c->reader_done || !c->writer_done) return false;
        reaped.push_back(c);
        return true;
      });
      // Register the connection before its reader can dispatch a frame:
      // a subscribe handled before it is visible in Connections() would
      // let the next batch's emissions bypass the new subscriber. The
      // teardown steps join the accept thread before they read the
      // registry, so every registered connection has its threads by then.
      conns_.push_back(conn);
    }
    for (const FrontConnPtr& c : reaped) {
      c->reader.join();
      c->writer.join();
    }
    conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
    conn->writer = std::thread([this, conn] { WriterLoop(conn); });
  }
}

void Frontend::StopAccepting() {
  if (stopping_.exchange(true)) return;
  handler_->OnTeardown();
  // The shutdown unblocks the accept thread; the close waits for its join
  // (Close rewrites the socket while AcceptTcp may still be reading it).
  listener_.ShutdownBoth();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
}

void Frontend::StopReading() {
  StopAccepting();
  const std::vector<FrontConnPtr> conns = Connections();
  for (const FrontConnPtr& conn : conns) conn->sock.ShutdownRead();
  for (const FrontConnPtr& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
  }
}

void Frontend::DrainWriters(std::chrono::steady_clock::time_point deadline) {
  const std::vector<FrontConnPtr> conns = Connections();
  for (const FrontConnPtr& conn : conns) {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closing = true;
    conn->cv_push.notify_all();
    conn->cv_pop.notify_all();
  }
  for (const FrontConnPtr& conn : conns) {
    bool drained = false;
    {
      std::unique_lock<std::mutex> lock(conn->mu);
      drained = conn->cv_done.wait_until(lock, deadline,
                                         [&] { return conn->writer_done; });
    }
    if (!drained) conn->sock.ShutdownBoth();
    if (conn->writer.joinable()) conn->writer.join();
  }
  std::lock_guard<std::mutex> lock(conns_mu_);
  conns_.clear();
}

void Frontend::Abort() {
  StopAccepting();
  const std::vector<FrontConnPtr> conns = Connections();
  for (const FrontConnPtr& conn : conns) Close(conn);
  for (const FrontConnPtr& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->writer.joinable()) conn->writer.join();
  }
  std::lock_guard<std::mutex> lock(conns_mu_);
  conns_.clear();
}

}  // namespace net
}  // namespace sop
