// The default Transport: POSIX TCP, moved here verbatim from the original
// socket.cc.

#include "sop/net/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace sop {
namespace net {

namespace {

bool Fail(std::string* error, const std::string& what) {
  if (error != nullptr) {
    *error = what + ": " + std::strerror(errno);
  }
  return false;
}

bool ParseAddress(const std::string& host, int port, sockaddr_in* addr,
                  std::string* error) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
    if (error != nullptr) {
      *error = "bad IPv4 address '" + host + "'";
    }
    return false;
  }
  return true;
}

class PosixConn : public TransportConn {
 public:
  explicit PosixConn(int fd) : fd_(fd) {}
  ~PosixConn() override { Close(); }

  int64_t Recv(char* buf, size_t cap, int timeout_ms,
               std::string* error) override {
    if (timeout_ms >= 0) {
      pollfd pfd;
      pfd.fd = fd_;
      pfd.events = POLLIN;
      pfd.revents = 0;
      for (;;) {
        const int ready = ::poll(&pfd, 1, timeout_ms);
        if (ready > 0) break;  // readable, hung up, or errored: recv decides
        if (ready == 0) return -2;
        if (errno == EINTR) continue;
        Fail(error, "poll");
        return -1;
      }
    }
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, cap, 0);
      if (n >= 0) return static_cast<int64_t>(n);
      if (errno == EINTR) continue;
      Fail(error, "recv");
      return -1;
    }
  }

  bool Send(const char* data, size_t len, std::string* error) override {
    size_t sent = 0;
    while (sent < len) {
      // MSG_NOSIGNAL: a dead peer yields EPIPE instead of killing the
      // process with SIGPIPE.
      const ssize_t n =
          ::send(fd_, data + sent, len - sent, MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return Fail(error, "send");
    }
    return true;
  }

  void ShutdownBoth() override {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }

  void ShutdownRead() override {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
  }

  void Close() override {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
};

class PosixListener : public TransportListener {
 public:
  PosixListener(int fd, int port) : fd_(fd), port_(port) {}
  ~PosixListener() override { Close(); }

  std::unique_ptr<TransportConn> Accept(std::string* error) override {
    for (;;) {
      const int fd = ::accept(fd_, nullptr, nullptr);
      if (fd >= 0) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        return std::make_unique<PosixConn>(fd);
      }
      if (errno == EINTR) continue;
      Fail(error, "accept");
      return nullptr;
    }
  }

  int port() const override { return port_; }

  void Shutdown() override {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }

  void Close() override {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
  int port_ = 0;
};

class PosixTransport : public Transport {
 public:
  std::unique_ptr<TransportListener> Listen(const std::string& host,
                                            int port, int backlog,
                                            std::string* error) override {
    sockaddr_in addr;
    if (!ParseAddress(host, port, &addr, error)) return nullptr;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      Fail(error, "socket");
      return nullptr;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      Fail(error, "bind " + host + ":" + std::to_string(port));
      ::close(fd);
      return nullptr;
    }
    if (::listen(fd, backlog) != 0) {
      Fail(error, "listen");
      ::close(fd);
      return nullptr;
    }
    sockaddr_in actual;
    socklen_t len = sizeof(actual);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) != 0) {
      Fail(error, "getsockname");
      ::close(fd);
      return nullptr;
    }
    return std::make_unique<PosixListener>(fd, ntohs(actual.sin_port));
  }

  std::unique_ptr<TransportConn> Connect(const std::string& host, int port,
                                         std::string* error) override {
    sockaddr_in addr;
    if (!ParseAddress(host, port, &addr, error)) return nullptr;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      Fail(error, "socket");
      return nullptr;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      Fail(error, "connect " + host + ":" + std::to_string(port));
      ::close(fd);
      return nullptr;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return std::make_unique<PosixConn>(fd);
  }
};

PosixTransport* PosixSingleton() {
  static PosixTransport transport;
  return &transport;
}

std::atomic<Transport*> g_armed{nullptr};

}  // namespace

Transport* Transport::Active() {
  Transport* armed = g_armed.load(std::memory_order_acquire);
  return armed != nullptr ? armed : PosixSingleton();
}

void Transport::Arm(Transport* transport) {
  Transport* expected = nullptr;
  if (!g_armed.compare_exchange_strong(expected, transport,
                                       std::memory_order_acq_rel)) {
    std::fprintf(stderr, "Transport::Arm: a transport is already armed\n");
    std::abort();
  }
}

void Transport::Disarm(Transport* transport) {
  Transport* expected = transport;
  g_armed.compare_exchange_strong(expected, nullptr,
                                  std::memory_order_acq_rel);
}

}  // namespace net
}  // namespace sop
