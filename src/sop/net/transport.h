// The transport seam under the serving plane (DESIGN.md Sec. 18): every
// byte SopServer, SopClient and SopRouter move goes through this
// interface. The default implementation is the POSIX TCP stack
// (transport_posix.cc); the deterministic simulation harness (sim/sim.h)
// arms an in-memory substitute with a seeded fault scheduler, and the
// whole serving plane runs on it unmodified.
//
// The interface is deliberately the minimal shape socket.h already
// exposed: stream connections with all-or-nothing sends, partial recvs
// with an optional deadline, and directional shutdown. The socket.h free
// functions (ListenTcp/ConnectTcp/RecvSome/SendAll/...) are thin shims
// over Transport::Active(), so callers never know which one they run on.
//
// Arming follows the FaultInjector registry pattern (common/fault.h):
// process-global, test-only, bracketing every thread that might touch the
// network.

#ifndef SOP_NET_TRANSPORT_H_
#define SOP_NET_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <string>

namespace sop {
namespace net {

/// One established stream connection. Implementations must support
/// concurrent use by one reader and one writer thread, plus Shutdown/Close
/// from a third (the server's stop path relies on it).
class TransportConn {
 public:
  virtual ~TransportConn() = default;

  /// Receives up to `cap` bytes. Returns the byte count, 0 on orderly
  /// peer close, -1 on error (`*error` set), or -2 (kRecvTimedOut) when
  /// `timeout_ms >= 0` and the deadline passed with no data. A negative
  /// `timeout_ms` blocks indefinitely.
  virtual int64_t Recv(char* buf, size_t cap, int timeout_ms,
                       std::string* error) = 0;

  /// Sends all `len` bytes, looping over short writes. False on error or
  /// a closed peer (`*error` set).
  virtual bool Send(const char* data, size_t len, std::string* error) = 0;

  /// Both directions: unblocks any thread inside Recv/Send on this conn.
  virtual void ShutdownBoth() = 0;
  /// Read direction only: the blocked reader wakes with an orderly EOF
  /// while queued outbound bytes still drain (the graceful stop path).
  virtual void ShutdownRead() = 0;
  virtual void Close() = 0;
};

/// One bound listening endpoint.
class TransportListener {
 public:
  virtual ~TransportListener() = default;

  /// Blocks for one connection; nullptr on failure (including the
  /// listener being shut down, the normal stop path).
  virtual std::unique_ptr<TransportConn> Accept(std::string* error) = 0;

  /// The bound port (meaningful when the bind asked for port 0).
  virtual int port() const = 0;

  /// Unblocks Accept and refuses further connections.
  virtual void Shutdown() = 0;
  virtual void Close() = 0;
};

/// A transport: the factory for listeners and outbound connections.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual std::unique_ptr<TransportListener> Listen(const std::string& host,
                                                    int port, int backlog,
                                                    std::string* error) = 0;

  virtual std::unique_ptr<TransportConn> Connect(const std::string& host,
                                                 int port,
                                                 std::string* error) = 0;

  /// The armed transport, or the POSIX singleton.
  static Transport* Active();

  /// Arms `transport` process-wide; aborts if one is already armed.
  static void Arm(Transport* transport);

  /// Disarms `transport` if it is the armed one.
  static void Disarm(Transport* transport);
};

/// RAII arming for tests.
class ScopedTransport {
 public:
  explicit ScopedTransport(Transport* transport) : transport_(transport) {
    Transport::Arm(transport_);
  }
  ~ScopedTransport() { Transport::Disarm(transport_); }

  ScopedTransport(const ScopedTransport&) = delete;
  ScopedTransport& operator=(const ScopedTransport&) = delete;

 private:
  Transport* transport_;
};

}  // namespace net
}  // namespace sop

#endif  // SOP_NET_TRANSPORT_H_
