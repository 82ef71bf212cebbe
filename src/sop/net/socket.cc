#include "sop/net/socket.h"

#include "sop/net/transport.h"

namespace sop {
namespace net {

namespace {

bool SetError(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

}  // namespace

void Socket::ShutdownBoth() {
  if (conn_ != nullptr) conn_->ShutdownBoth();
  if (listener_ != nullptr) listener_->Shutdown();
}

void Socket::ShutdownRead() {
  if (conn_ != nullptr) conn_->ShutdownRead();
  if (listener_ != nullptr) listener_->Shutdown();
}

void Socket::Close() {
  if (conn_ != nullptr) {
    conn_->Close();
    conn_.reset();
  }
  if (listener_ != nullptr) {
    listener_->Close();
    listener_.reset();
  }
}

Socket ListenTcp(const std::string& host, int port, int backlog,
                 int* bound_port, std::string* error) {
  std::unique_ptr<TransportListener> listener =
      Transport::Active()->Listen(host, port, backlog, error);
  if (listener == nullptr) return Socket();
  if (bound_port != nullptr) *bound_port = listener->port();
  return Socket(std::move(listener));
}

Socket AcceptTcp(const Socket& listener, std::string* error) {
  if (listener.listener() == nullptr) {
    SetError(error, "accept: not a listening socket");
    return Socket();
  }
  std::unique_ptr<TransportConn> conn = listener.listener()->Accept(error);
  if (conn == nullptr) return Socket();
  return Socket(std::move(conn));
}

Socket ConnectTcp(const std::string& host, int port, std::string* error) {
  std::unique_ptr<TransportConn> conn =
      Transport::Active()->Connect(host, port, error);
  if (conn == nullptr) return Socket();
  return Socket(std::move(conn));
}

int64_t RecvSome(const Socket& sock, char* buf, size_t cap,
                 std::string* error) {
  return RecvSomeTimeout(sock, buf, cap, /*timeout_ms=*/-1, error);
}

int64_t RecvSomeTimeout(const Socket& sock, char* buf, size_t cap,
                        int timeout_ms, std::string* error) {
  if (sock.conn() == nullptr) {
    SetError(error, "recv: not a connected socket");
    return -1;
  }
  return sock.conn()->Recv(buf, cap, timeout_ms, error);
}

bool SendAll(const Socket& sock, const std::string& bytes,
             std::string* error) {
  if (sock.conn() == nullptr) {
    return SetError(error, "send: not a connected socket");
  }
  return sock.conn()->Send(bytes.data(), bytes.size(), error);
}

}  // namespace net
}  // namespace sop
