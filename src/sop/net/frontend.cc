#include "sop/net/frontend.h"

#include <type_traits>
#include <utility>

#include "sop/net/protocol.h"
#include "sop/obs/metrics.h"

namespace sop {
namespace net {

namespace {

// One listen backlog for every front.
constexpr int kListenBacklog = 128;

// One of the front's registry metrics, named by its owner and bound on
// first use while obs is enabled: like a SOP_COUNTER_ADD site it registers
// only what it records.
template <typename M>
class OwnedMetric {
 public:
  OwnedMetric(const std::string& prefix, const char* name)
      : name_(prefix.empty() ? std::string() : prefix + name) {}

  // Null while obs is off, or when the owner named no prefix.
  M* get() {
    if (name_.empty() || !obs::Enabled()) return nullptr;
    M* m = bound_.load(std::memory_order_acquire);
    if (m != nullptr) return m;
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    if constexpr (std::is_same_v<M, obs::Counter>) {
      m = &registry.GetCounter(name_);
    } else {
      m = &registry.GetGauge(name_);
    }
    bound_.store(m, std::memory_order_release);
    return m;
  }

 private:
  const std::string name_;
  std::atomic<M*> bound_{nullptr};
};

// An always-on count mirrored into its registry counter.
struct Count : OwnedMetric<obs::Counter> {
  using OwnedMetric::OwnedMetric;
  void Add(uint64_t n) {
    value.fetch_add(n, std::memory_order_relaxed);
    if (obs::Counter* c = get()) c->Add(n);
  }
  uint64_t load() const { return value.load(std::memory_order_relaxed); }

  std::atomic<uint64_t> value{0};
};

}  // namespace

struct Frontend::Counters {
  explicit Counters(const std::string& prefix)
      : connections(prefix, "connections"),
        disconnects(prefix, "disconnects"),
        frames_in(prefix, "frames_in"),
        frames_out(prefix, "frames_out"),
        bytes_in(prefix, "bytes_in"),
        bytes_out(prefix, "bytes_out"),
        shed_emissions(prefix, "shed_emissions"),
        idle_disconnects(prefix, "idle_disconnects"),
        active_clients(prefix, "active_clients"),
        send_queue_depth(prefix, "send_queue_depth") {}

  // Every accepted connection counts one connection, and its close one
  // disconnect; a connection still open at a graceful drain never closes.
  uint64_t active() const { return connections.load() - disconnects.load(); }
  void PublishActive() {
    if (obs::Gauge* g = active_clients.get()) {
      g->Set(static_cast<int64_t>(active()));
    }
  }

  Count connections;
  Count disconnects;
  Count frames_in;
  Count frames_out;
  Count bytes_in;
  Count bytes_out;
  Count shed_emissions;
  Count idle_disconnects;
  OwnedMetric<obs::Gauge> active_clients;
  OwnedMetric<obs::Gauge> send_queue_depth;
};

Frontend::Frontend(Options options, FrontHandler* handler)
    : options_(std::move(options)),
      handler_(handler),
      counters_(std::make_unique<Counters>(options_.metrics_prefix)) {}

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
          counters_->shed_emissions.Add(1);
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
  if (obs::Gauge* g = counters_->send_queue_depth.get()) {
    g->SetMax(static_cast<int64_t>(conn->sendq.size()));
  }
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
  counters_->disconnects.Add(1);
  counters_->PublishActive();
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
  const Counters& c = *counters_;
  Stats s;
  s.connections = c.connections.load();
  s.active = c.active();
  s.frames_in = c.frames_in.load();
  s.frames_out = c.frames_out.load();
  s.bytes_in = c.bytes_in.load();
  s.bytes_out = c.bytes_out.load();
  s.shed_emissions = c.shed_emissions.load();
  s.idle_disconnects = c.idle_disconnects.load();
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
    counters_->frames_out.Add(1);
    counters_->bytes_out.Add(out.frame.size());
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
      counters_->idle_disconnects.Add(1);
      timed_out = true;
      break;
    }
    if (n <= 0) break;  // orderly close or hard error
    counters_->bytes_in.Add(static_cast<uint64_t>(n));
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
        counters_->frames_in.Add(1);
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
    counters_->connections.Add(1);
    counters_->PublishActive();
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
