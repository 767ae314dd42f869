// Loopback socket primitive tests: ephemeral binding, line framing across
// split writes, CRLF tolerance, EOF semantics, bounded line reads, the line
// length cap, TCP_NODELAY on both ends, and partial-write resilience under
// a slow-draining peer.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <chrono>
#include <functional>
#include <string>
#include <thread>

#include "util/socket.h"

namespace hs {
namespace {

TEST(SocketTest, EphemeralListenerReportsItsPort) {
  TcpListener listener(0);
  EXPECT_GT(listener.port(), 0);
  // A second ephemeral listener gets its own port.
  TcpListener other(0);
  EXPECT_NE(other.port(), listener.port());
}

TEST(SocketTest, LineRoundTripOverLoopback) {
  TcpListener listener(0);
  std::thread echo([&listener] {
    Socket peer = listener.Accept();
    for (;;) {
      const std::optional<std::string> line = peer.RecvLine();
      if (!line.has_value()) break;
      SendLine(peer, "echo:" + *line);
    }
  });

  Socket client = ConnectLoopback(listener.port());
  SendLine(client, "hello world");
  EXPECT_EQ(client.RecvLine(), std::optional<std::string>("echo:hello world"));

  // Several lines in one send still come back one at a time.
  client.SendAll("a\nb\nc\n");
  EXPECT_EQ(client.RecvLine(), std::optional<std::string>("echo:a"));
  EXPECT_EQ(client.RecvLine(), std::optional<std::string>("echo:b"));
  EXPECT_EQ(client.RecvLine(), std::optional<std::string>("echo:c"));

  // A line split across writes arrives whole; '\r\n' is stripped to the line.
  client.SendAll("split");
  client.SendAll(" line\r\n");
  EXPECT_EQ(client.RecvLine(), std::optional<std::string>("echo:split line"));

  client.Close();
  echo.join();
}

TEST(SocketTest, CleanEofIsNulloptPartialLineIsReturned) {
  TcpListener listener(0);
  std::thread writer([&listener] {
    Socket peer = listener.Accept();
    peer.SendAll("complete\npartial");  // no trailing newline, then close
  });

  Socket client = ConnectLoopback(listener.port());
  EXPECT_EQ(client.RecvLine(), std::optional<std::string>("complete"));
  EXPECT_EQ(client.RecvLine(), std::optional<std::string>("partial"));
  EXPECT_EQ(client.RecvLine(), std::nullopt);
  writer.join();
}

TEST(SocketTest, ConnectToClosedPortThrows) {
  // Bind-then-drop guarantees the port is currently closed.
  std::uint16_t dead_port = 0;
  { dead_port = TcpListener(0).port(); }
  EXPECT_THROW(ConnectLoopback(dead_port), std::runtime_error);
}

TEST(SocketTest, RecvLineWithTimeoutTimesOutThenDelivers) {
  TcpListener listener(0);
  Socket client = ConnectLoopback(listener.port());
  Socket peer = listener.Accept();

  // A silent peer: the zero-timeout poll and a short bounded wait both
  // report kTimeout without consuming anything.
  std::string line;
  EXPECT_EQ(client.RecvLineWithTimeout(0.0, &line), RecvLineStatus::kTimeout);
  EXPECT_EQ(client.RecvLineWithTimeout(0.05, &line), RecvLineStatus::kTimeout);

  // Bytes without a newline stay buffered across kTimeout returns; the
  // line is delivered whole once the terminator arrives.
  peer.SendAll("hal");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(client.RecvLineWithTimeout(0.05, &line), RecvLineStatus::kTimeout);
  peer.SendAll("f and rest\r\n");
  EXPECT_EQ(client.RecvLineWithTimeout(5.0, &line), RecvLineStatus::kLine);
  EXPECT_EQ(line, "half and rest");
}

TEST(SocketTest, RecvLineWithTimeoutEofSemanticsMatchRecvLine) {
  TcpListener listener(0);
  Socket client = ConnectLoopback(listener.port());
  {
    Socket peer = listener.Accept();
    peer.SendAll("complete\npartial");  // no trailing newline, then close
  }
  std::string line;
  EXPECT_EQ(client.RecvLineWithTimeout(5.0, &line), RecvLineStatus::kLine);
  EXPECT_EQ(line, "complete");
  // The unterminated final fragment still counts as a line at EOF...
  EXPECT_EQ(client.RecvLineWithTimeout(5.0, &line), RecvLineStatus::kLine);
  EXPECT_EQ(line, "partial");
  // ...and only a clean EOF with nothing buffered is kEof.
  EXPECT_EQ(client.RecvLineWithTimeout(5.0, &line), RecvLineStatus::kEof);
}

TEST(SocketTest, SendAllSurvivesPartialWritesToSlowReader) {
  // A payload far beyond the kernel socket buffers forces send(2) to
  // return short writes; SendAll must keep going until every byte is out,
  // and the slow-draining reader must see the exact bytes. The payload is
  // 64 KiB lines, well inside the reader's line cap.
  const std::size_t kBytes = 4 * 1024 * 1024;
  std::string payload(kBytes, 'x');
  for (std::size_t i = 0; i < payload.size(); i += 4096) payload[i] = 'y';
  for (std::size_t i = 65535; i < payload.size(); i += 65536) payload[i] = '\n';

  TcpListener listener(0);
  std::string received;
  std::thread reader([&listener, &received, kBytes] {
    Socket peer = listener.Accept();
    std::string line;
    while (received.size() < kBytes) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));  // drain slowly
      const RecvLineStatus status = peer.RecvLineWithTimeout(10.0, &line);
      if (status != RecvLineStatus::kLine) break;
      received += line;
      received += '\n';
    }
  });
  Socket client = ConnectLoopback(listener.port());
  client.SendAll(payload);
  client.Close();
  reader.join();
  EXPECT_EQ(received.size(), payload.size());
  EXPECT_EQ(received, payload);
}

TEST(SocketTest, SendAllToHungUpPeerThrowsInsteadOfSigpipe) {
  TcpListener listener(0);
  Socket client = ConnectLoopback(listener.port());
  { (void)listener.Accept(); }  // accept, then immediately close
  // The first sends may land in the kernel buffer; keep writing until the
  // RST surfaces. A SIGPIPE would kill the process before the throw.
  EXPECT_THROW(
      {
        for (int i = 0; i < 10000; ++i) client.SendAll(std::string(4096, 'z'));
      },
      std::runtime_error);
}

bool NoDelaySet(const Socket& socket) {
  int value = 0;
  socklen_t len = sizeof(value);
  EXPECT_EQ(::getsockopt(socket.fd(), IPPROTO_TCP, TCP_NODELAY, &value, &len), 0);
  return value != 0;
}

TEST(SocketTest, BothEndsSetTcpNoDelay) {
  TcpListener listener(0);
  Socket loopback = ConnectLoopback(listener.port());
  Socket loopback_peer = listener.Accept();
  EXPECT_TRUE(NoDelaySet(loopback));
  EXPECT_TRUE(NoDelaySet(loopback_peer));

  Socket bounded = ConnectTcp("127.0.0.1", listener.port(), 5.0);
  Socket bounded_peer = listener.Accept();
  EXPECT_TRUE(NoDelaySet(bounded));
  EXPECT_TRUE(NoDelaySet(bounded_peer));
}

TEST(SocketTest, LineLongerThanTheCapThrowsNamingTheLimit) {
  // Both line readers, over a socketpair: a line of exactly kMaxLineBytes
  // is delivered, then 2 MiB with no newline throws once the buffer passes
  // the cap instead of growing without bound.
  const std::function<std::optional<std::string>(Socket&)> readers[] = {
      [](Socket& s) { return s.RecvLine(); },
      [](Socket& s) -> std::optional<std::string> {
        std::string line;
        if (s.RecvLineWithTimeout(10.0, &line) != RecvLineStatus::kLine) return {};
        return line;
      },
  };
  for (const auto& read : readers) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    Socket reader(fds[0]);
    std::thread writer([fd = fds[1]] {
      Socket out(fd);
      try {
        out.SendAll(std::string(kMaxLineBytes, 'a') + "\n");
        out.SendAll(std::string(2 * kMaxLineBytes, 'b'));
      } catch (const std::exception&) {
        // The reader gave up and closed its end: expected.
      }
    });
    const std::optional<std::string> longest = read(reader);
    ASSERT_TRUE(longest.has_value());
    EXPECT_EQ(longest->size(), kMaxLineBytes);
    try {
      read(reader);
      ADD_FAILURE() << "an over-long line was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(kMaxLineBytes)),
                std::string::npos)
          << e.what();
    }
    reader.Close();
    writer.join();
  }
}

TEST(SocketTest, MovedFromSocketIsInvalid) {
  TcpListener listener(0);
  std::thread accepter([&listener] { (void)listener.Accept(); });
  Socket a = ConnectLoopback(listener.port());
  EXPECT_TRUE(a.valid());
  Socket b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  accepter.join();
}

}  // namespace
}  // namespace hs
