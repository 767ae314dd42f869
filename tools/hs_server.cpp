// hs_server: the persistent scheduler service.
//
//   hs_server --spec=STRING [--port=N] [--port-file=FILE] [--headroom=N]
//
// Loads the spec (trace + config), opens an online SimulationSession with
// --headroom live-submission slots (1..2^20), binds 127.0.0.1:--port (0, the
// default, picks an ephemeral port) and serves hs-session v1 verbs to any
// number of concurrent clients (thread per connection; mutations
// serialized through the op log, what-ifs forked off-thread) until a
// `shutdown` verb arrives on any connection. --port-file writes the bound
// port as one line — the rendezvous for scripts that start the server with
// --port=0 (the CI smoke does).
//
// Exit status: 0 on clean shutdown; 1 on any error with the reason on
// stderr.
#include <cstdio>
#include <string>

#include "exp/sim_spec.h"
#include "service/server.h"
#include "service/service_session.h"
#include "util/cli.h"
#include "util/file_util.h"

int main(int argc, char** argv) {
  using namespace hs;
  try {
    const CliArgs args(argc, argv);
    const std::string spec_text = args.GetString("spec", "");
    const std::int64_t port = args.GetInt("port", 0);
    const std::string port_file = args.GetString("port-file", "");
    const std::int64_t headroom =
        args.GetInt("headroom", static_cast<std::int64_t>(ServiceSession::kDefaultHeadroom),
                    1, static_cast<std::int64_t>(ServiceSession::kMaxHeadroom));
    args.RejectUnknown();
    if (spec_text.empty() || port < 0 || port > 65535) {
      std::fprintf(stderr,
                   "usage: %s --spec=STRING [--port=N] [--port-file=FILE] "
                   "[--headroom=N]\n",
                   args.program().c_str());
      return 1;
    }

    const SimSpec spec = SimSpec::Parse(spec_text);
    ServiceSession session(spec, static_cast<std::size_t>(headroom));
    ScheduleServer server(session, static_cast<std::uint16_t>(port));
    if (!port_file.empty()) {
      WriteTextFile(port_file, std::to_string(server.port()) + "\n");
    }
    std::printf("hs_server: %s on 127.0.0.1:%u (%zu jobs, %d nodes)\n",
                spec.ToString().c_str(), server.port(),
                session.live().trace().jobs.size(),
                session.live().trace().num_nodes);
    std::fflush(stdout);
    server.Serve();
    std::printf("hs_server: shutdown at t=%lld after %zu ops\n",
                static_cast<long long>(session.now()), session.ops_logged());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hs_server: %s\n", e.what());
    return 1;
  }
}
