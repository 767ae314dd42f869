// hs_client: one-shot client for a running hs_server.
//
//   hs_client --port=N VERB [key=value]...
//   hs_client --oracle-snapshot=FILE VERB [key=value]...
//
// Joins the positional arguments into one hs-session v1 request line
// (values escaped), sends it, and prints every response line to stdout as
// it arrives (so `watch` streams live ticks; `ok n=0` marks an unbounded
// stream that ends when the server closes it).
// Exit status: 0 when the response starts with `ok`, 1 otherwise.
//
// --oracle-snapshot bypasses the network entirely: it restores a
// ServiceSession from a snapshot file (event-sourced op-log replay) and
// dispatches the same verb locally with the what-if fork fast path
// disabled. Diffing its `whatif` output against the live server's answers
// is the CI smoke's fork-vs-replay determinism check.
#include <cstdio>
#include <string>
#include <vector>

#include "service/protocol.h"
#include "service/server.h"
#include "service/service_session.h"
#include "util/cli.h"
#include "util/parse.h"
#include "util/socket.h"

namespace {

/// Re-assembles `VERB key=value...` argv tokens into a wire request line,
/// escaping each value (argv values arrive unescaped from the shell).
std::string BuildRequestLine(const std::vector<std::string>& positional) {
  std::vector<std::pair<std::string, std::string>> args;
  for (std::size_t i = 1; i < positional.size(); ++i) {
    const hs::KvToken token = hs::ClassifyToken(positional[i]);
    if (token.kind != hs::KvToken::Kind::kKeyValue || token.key.empty()) {
      throw std::invalid_argument("argument '" + positional[i] + "' is not key=value");
    }
    args.emplace_back(token.key, token.value);
  }
  return hs::FormatRequest(positional[0], args);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hs;
  try {
    const CliArgs args(argc, argv);
    const std::int64_t port = args.GetInt("port", 0);
    const std::string oracle = args.GetString("oracle-snapshot", "");
    args.RejectUnknown();
    if (args.positional().empty() || (oracle.empty() && (port < 1 || port > 65535))) {
      std::fprintf(stderr,
                   "usage: %s --port=N VERB [key=value]...\n"
                   "       %s --oracle-snapshot=FILE VERB [key=value]...\n",
                   args.program().c_str(), args.program().c_str());
      return 1;
    }
    const std::string request = BuildRequestLine(args.positional());

    if (!oracle.empty()) {
      const auto session = ServiceSession::RestoreFrom(oracle);
      DispatchOptions options;
      options.force_replay = true;  // the oracle answers via op-log replay
      const std::vector<std::string> lines =
          HandleRequestLine(*session, request, options).lines;
      for (const std::string& line : lines) std::printf("%s\n", line.c_str());
      return !lines.empty() && lines.front().rfind("ok", 0) == 0 ? 0 : 1;
    }

    Socket sock = ConnectLoopback(static_cast<std::uint16_t>(port));
    const std::optional<std::string> greeting = sock.RecvLine();
    if (!greeting.has_value() || *greeting != kWireGreeting) {
      std::fprintf(stderr, "hs_client: bad greeting from server\n");
      return 1;
    }
    SendLine(sock, request);
    const std::optional<std::string> first = sock.RecvLine();
    if (!first.has_value()) {
      std::fprintf(stderr, "hs_client: server closed the connection\n");
      return 1;
    }
    std::printf("%s\n", first->c_str());
    std::fflush(stdout);
    const bool ok = first->rfind("ok", 0) == 0;
    // Multi-line responses are framed `ok n=K ... end`; lines stream to
    // stdout as they arrive (a `watch` tick shows up when it happens, not
    // when the stream ends). `ok n=0` is an unbounded stream: the server
    // closing it is the normal end, not a truncation.
    if (first->rfind("ok n=", 0) == 0) {
      const bool unbounded = first->rfind("ok n=0 ", 0) == 0 || *first == "ok n=0";
      for (;;) {
        const std::optional<std::string> line = sock.RecvLine();
        if (!line.has_value()) {
          if (unbounded) break;
          std::fprintf(stderr, "hs_client: truncated response\n");
          return 1;
        }
        std::printf("%s\n", line->c_str());
        std::fflush(stdout);
        if (*line == "end") break;
      }
    }
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hs_client: %s\n", e.what());
    return 1;
  }
}
