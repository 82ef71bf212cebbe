// TCP helpers shared by SopServer and SopClient: RAII connection
// ownership, full-buffer sends, and receives with an optional deadline.
//
// Since the sim harness landed (DESIGN.md Sec. 18) these are thin shims
// over the process transport (net/transport.h): by default the POSIX TCP
// stack, under test possibly the deterministic in-memory SimNet, whose
// delay, drop and truncate rules model network failures. Every socket
// error surfaces as an ordinary failure return: the serving layer must
// never abort the process because one connection went bad.

#ifndef SOP_NET_SOCKET_H_
#define SOP_NET_SOCKET_H_

#include <cstdint>
#include <memory>
#include <string>

#include "sop/net/transport.h"

namespace sop {
namespace net {

/// Owning wrapper over one transport endpoint — either an established
/// connection or a listener. Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(std::unique_ptr<TransportConn> conn)
      : conn_(std::move(conn)) {}
  explicit Socket(std::unique_ptr<TransportListener> listener)
      : listener_(std::move(listener)) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept = default;
  Socket& operator=(Socket&& other) noexcept = default;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return conn_ != nullptr || listener_ != nullptr; }

  /// The underlying endpoints (null when this Socket is the other kind).
  TransportConn* conn() const { return conn_.get(); }
  TransportListener* listener() const { return listener_.get(); }

  /// Both directions — unblocks any thread inside recv/send on this
  /// connection (the close path readers/writers rely on). On a listener:
  /// unblocks Accept.
  void ShutdownBoth();
  /// The read direction only: the blocked reader wakes with an orderly
  /// EOF while queued outbound bytes still drain — the graceful stop
  /// path, as opposed to ShutdownBoth's discard-everything close.
  void ShutdownRead();
  void Close();

 private:
  std::unique_ptr<TransportConn> conn_;
  std::unique_ptr<TransportListener> listener_;
};

/// Creates a listening socket bound to `host:port` on the active
/// transport (port 0 picks an ephemeral port; *bound_port reports the
/// actual one). Returns an invalid Socket with `*error` set on failure.
Socket ListenTcp(const std::string& host, int port, int backlog,
                 int* bound_port, std::string* error);

/// Accepts one connection. Returns an invalid Socket on failure (including
/// the listener being shut down, the normal stop path).
Socket AcceptTcp(const Socket& listener, std::string* error);

/// Connects to `host:port` on the active transport. Returns an invalid
/// Socket with `*error` set on failure.
Socket ConnectTcp(const std::string& host, int port, std::string* error);

/// Receives up to `cap` bytes into `buf`. Returns the byte count, 0 on
/// orderly peer close, or -1 on error (with `*error` set).
int64_t RecvSome(const Socket& sock, char* buf, size_t cap,
                 std::string* error);

/// RecvSome with a deadline: waits for readability up to `timeout_ms`
/// first. Returns -2 when the deadline passes with no data (not an error —
/// the caller decides whether an idle wait is fatal), otherwise exactly
/// RecvSome's contract. timeout_ms < 0 degenerates to a plain RecvSome.
int64_t RecvSomeTimeout(const Socket& sock, char* buf, size_t cap,
                        int timeout_ms, std::string* error);

/// Result code RecvSomeTimeout returns when the deadline expires.
inline constexpr int64_t kRecvTimedOut = -2;

/// Sends all of `bytes`, looping over short writes. Returns false on error
/// or a closed peer.
bool SendAll(const Socket& sock, const std::string& bytes, std::string* error);

}  // namespace net
}  // namespace sop

#endif  // SOP_NET_SOCKET_H_
