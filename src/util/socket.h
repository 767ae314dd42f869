// Minimal TCP primitives for the scheduler service and the distributed
// experiment fabric.
//
// Deliberately tiny: IPv4, blocking I/O by default, newline-delimited text
// messages. Loopback is the default posture (the service is a local
// co-process, like hs_worker); the fabric additionally needs real-host
// connects (ConnectTcp) and bounded reads (RecvLineWithTimeout) so a
// half-open or wedged peer can never hang the orchestrator forever.
// Errors throw std::runtime_error naming the failing call, matching the
// subprocess.h / file_util.h idiom.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace hs {

/// Outcome of a bounded line read (Socket::RecvLineWithTimeout).
enum class RecvLineStatus {
  kLine,     // a complete line (or the partial final line at EOF) arrived
  kEof,      // clean EOF with nothing buffered
  kTimeout,  // no complete line within the deadline; partial bytes stay
             // buffered for the next call
};

/// A connected stream socket; move-only RAII over the file descriptor.
/// Line reads use read(2), so a Socket can also own a pipe's read end
/// (the fabric reads a local worker's stdout through one).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void Close();

  /// Writes all of `data` (retrying short writes); throws on error.
  /// SIGPIPE is suppressed — a peer hangup surfaces as the exception.
  void SendAll(std::string_view data);

  /// Reads up to and including the next '\n'; returns the line without the
  /// newline (and without a trailing '\r'). nullopt on clean EOF with no
  /// buffered partial line; a partial line at EOF is returned as-is.
  std::optional<std::string> RecvLine();

  /// RecvLine bounded by a deadline: waits at most `timeout_s` seconds
  /// (0 = a single non-blocking poll) for a complete line. kLine fills
  /// `*line` with the same framing rules as RecvLine (a partial line at
  /// EOF counts as a line); kEof is a clean EOF with nothing buffered;
  /// kTimeout means no complete line arrived in time — any bytes already
  /// received stay buffered, so a later call resumes mid-line losslessly.
  /// EINTR never shortens the wait (the deadline is recomputed). Throws on
  /// socket errors, like RecvLine.
  RecvLineStatus RecvLineWithTimeout(double timeout_s, std::string* line);

  /// Non-blocking probe: true when the peer has closed (or the connection
  /// is dead), false when it is still open (with or without pending bytes).
  /// Lets a streaming sender notice a hang-up without writing anything.
  bool PeerClosed() const;

 private:
  int fd_ = -1;
  std::string buf_;  // bytes received past the last returned line
};

/// Sends `line` + '\n'.
void SendLine(Socket& socket, std::string_view line);

/// shutdown(2)s both directions of `fd` without closing it — wakes a thread
/// blocked in recv on the same descriptor (its RecvLine sees EOF). The
/// owning Socket still closes the fd; safe to call from another thread as
/// long as the owner has not closed it yet.
void ShutdownFd(int fd);

/// Connects to 127.0.0.1:`port`; throws std::runtime_error on failure.
Socket ConnectLoopback(std::uint16_t port);

/// Connects to `host`:`port` (IPv4; numeric or resolvable name). A
/// `connect_timeout_s` > 0 bounds the connect itself (non-blocking connect
/// + poll, then the socket is returned to blocking mode); 0 uses the OS
/// default. Throws std::runtime_error naming host:port on failure or
/// timeout — a dead agent must surface quickly, not after the kernel's
/// multi-minute SYN retry schedule.
Socket ConnectTcp(const std::string& host, std::uint16_t port,
                  double connect_timeout_s = 0.0);

/// A listening socket bound to 127.0.0.1 by default (never a routable
/// interface unless `bind_any` is explicitly requested — hs_agent opts in
/// for real multi-host deployments). Port 0 requests an ephemeral port;
/// port() reports the bound one.
class TcpListener {
 public:
  explicit TcpListener(std::uint16_t port, bool bind_any = false);

  std::uint16_t port() const { return port_; }

  /// Blocks for the next connection; throws on listener failure.
  Socket Accept();

 private:
  Socket listen_;
  std::uint16_t port_ = 0;
};

}  // namespace hs
