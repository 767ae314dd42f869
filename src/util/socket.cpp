#include "util/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace hs {

namespace {

[[noreturn]] void Fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

sockaddr_in LoopbackAddr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

/// poll(2) on one fd for `events`, EINTR-safe against a fixed deadline.
/// Returns the revents (0 on timeout). `timeout_ms` < 0 blocks forever.
int PollFd(int fd, short events, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    int remaining = timeout_ms;
    if (timeout_ms > 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      remaining = left > 0 ? static_cast<int>(left) : 0;
    }
    pollfd pfd{fd, events, 0};
    const int rc = ::poll(&pfd, 1, remaining);
    if (rc < 0) {
      if (errno == EINTR) continue;  // re-derive remaining from the deadline
      Fail("poll");
    }
    return rc == 0 ? 0 : pfd.revents;
  }
}

}  // namespace

Socket::~Socket() { Close(); }

Socket::Socket(Socket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), buf_(std::move(other.buf_)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    buf_ = std::move(other.buf_);
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buf_.clear();
}

void Socket::SendAll(std::string_view data) {
  if (fd_ < 0) throw std::runtime_error("Socket::SendAll on closed socket");
  while (!data.empty()) {
    // MSG_NOSIGNAL: a hung-up peer must surface as the exception below, not
    // as a process-killing SIGPIPE.
    const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      // n == 0 cannot make progress; treat it like EINTR and retry rather
      // than spin the remove_prefix loop on an empty write.
      if (n == 0 || errno == EINTR) continue;
      Fail("Socket::SendAll");
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
}

std::optional<std::string> Socket::RecvLine() {
  if (fd_ < 0) throw std::runtime_error("Socket::RecvLine on closed socket");
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      Fail("Socket::RecvLine");
    }
    if (n == 0) {  // EOF
      if (buf_.empty()) return std::nullopt;
      std::string line = std::move(buf_);
      buf_.clear();
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

RecvLineStatus Socket::RecvLineWithTimeout(double timeout_s, std::string* line) {
  if (fd_ < 0) throw std::runtime_error("Socket::RecvLineWithTimeout on closed socket");
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  bool first = true;
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      *line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      if (!line->empty() && line->back() == '\r') line->pop_back();
      return RecvLineStatus::kLine;
    }
    int remaining_ms = 0;
    if (timeout_s > 0.0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      remaining_ms = left > 0 ? static_cast<int>(left) : 0;
      if (remaining_ms == 0 && !first) return RecvLineStatus::kTimeout;
    }
    first = false;
    if (PollFd(fd_, POLLIN, remaining_ms) == 0) return RecvLineStatus::kTimeout;
    // POLLIN (or POLLHUP/POLLERR) is up: one read cannot block, and an
    // error condition surfaces through it as -1 / EOF.
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      Fail("Socket::RecvLineWithTimeout");
    }
    if (n == 0) {  // EOF: a buffered partial line is still a line
      if (buf_.empty()) return RecvLineStatus::kEof;
      *line = std::move(buf_);
      buf_.clear();
      if (!line->empty() && line->back() == '\r') line->pop_back();
      return RecvLineStatus::kLine;
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool Socket::PeerClosed() const {
  if (fd_ < 0) return true;
  char probe;
  const ssize_t n = ::recv(fd_, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
  if (n > 0) return false;  // pending request bytes: still talking to us
  if (n == 0) return true;  // orderly shutdown from the peer
  return errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR;
}

void ShutdownFd(int fd) {
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void SendLine(Socket& socket, std::string_view line) {
  std::string framed(line);
  framed += '\n';
  socket.SendAll(framed);
}

Socket ConnectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) Fail("ConnectLoopback: socket");
  Socket sock(fd);
  const sockaddr_in addr = LoopbackAddr(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    Fail("ConnectLoopback: connect to 127.0.0.1:" + std::to_string(port));
  }
  return sock;
}

Socket ConnectTcp(const std::string& host, std::uint16_t port,
                  double connect_timeout_s) {
  const std::string label = host + ":" + std::to_string(port);
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int gai = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                                &hints, &res);
  if (gai != 0) {
    throw std::runtime_error("ConnectTcp: resolve " + label + ": " +
                             ::gai_strerror(gai));
  }
  std::string last_error = "no addresses";
  for (const addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = std::string("socket: ") + std::strerror(errno);
      continue;
    }
    Socket sock(fd);
    if (connect_timeout_s <= 0.0) {
      if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
        ::freeaddrinfo(res);
        return sock;
      }
      last_error = std::string("connect: ") + std::strerror(errno);
      continue;
    }
    // Bounded connect: non-blocking connect, poll for writability, read
    // SO_ERROR for the verdict, then return the socket to blocking mode.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
      last_error = std::string("fcntl: ") + std::strerror(errno);
      continue;
    }
    int rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
    if (rc != 0 && errno != EINPROGRESS && errno != EINTR) {
      last_error = std::string("connect: ") + std::strerror(errno);
      continue;
    }
    if (rc != 0) {
      const int timeout_ms =
          static_cast<int>(connect_timeout_s * 1000.0) + 1;
      if (PollFd(fd, POLLOUT, timeout_ms) == 0) {
        last_error = "connect timed out after " +
                     std::to_string(connect_timeout_s) + "s";
        continue;
      }
      int err = 0;
      socklen_t len = sizeof(err);
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
        last_error = std::string("connect: ") +
                     std::strerror(err != 0 ? err : errno);
        continue;
      }
    }
    if (::fcntl(fd, F_SETFL, flags) < 0) {
      last_error = std::string("fcntl restore: ") + std::strerror(errno);
      continue;
    }
    ::freeaddrinfo(res);
    return sock;
  }
  ::freeaddrinfo(res);
  throw std::runtime_error("ConnectTcp: " + label + ": " + last_error);
}

TcpListener::TcpListener(std::uint16_t port, bool bind_any) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) Fail("TcpListener: socket");
  listen_ = Socket(fd);
  const int one = 1;
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) != 0) {
    Fail("TcpListener: setsockopt(SO_REUSEADDR)");
  }
  sockaddr_in addr = LoopbackAddr(port);
  if (bind_any) addr.sin_addr.s_addr = htonl(INADDR_ANY);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    Fail("TcpListener: bind " + std::string(bind_any ? "0.0.0.0" : "127.0.0.1") +
         ":" + std::to_string(port));
  }
  if (::listen(fd, 8) != 0) Fail("TcpListener: listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    Fail("TcpListener: getsockname");
  }
  port_ = ntohs(addr.sin_port);
}

Socket TcpListener::Accept() {
  for (;;) {
    const int fd = ::accept(listen_.fd(), nullptr, nullptr);
    if (fd >= 0) return Socket(fd);
    if (errno == EINTR) continue;
    Fail("TcpListener::Accept");
  }
}

}  // namespace hs
