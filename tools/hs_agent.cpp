// hs_agent: the remote end of the `# hs-fabric v1` TCP transport.
//
//   hs_agent [--port=N] [--port-file=FILE] [--worker-bin=PATH]
//            [--threads=N] [--bind-any]
//
// One daemon per host. It accepts one orchestrator connection at a time
// (the orchestrator opens one connection per work unit), receives the
// unit's cells, and starts the local hs_worker through SpawnWorker
// (exp/transport.h): the shard header plus the cell lines exactly as
// received are the worker's stdin, so the worker's ReadShardFile is the
// one check on them. The agent relays the worker's stdout — its `row`
// frames and `# hs-progress` heartbeats — verbatim as it arrives, and
// adds only its own frames: the worker's in-memory stderr as `log` lines
// once it exits, then `done exit=C` / `done signal=S`, or
// `err msg=<reason>` when the unit header itself is bad. No unit writes a
// file; --work-dir=DIR is still accepted for older launch scripts and
// ignored.
//
// The agent closes the connection after `done`/`err` and goes back to
// accept. If the orchestrator hangs up mid-unit, the agent kills its
// worker and goes back to accept — a unit has no meaning without its
// orchestrator.
//
// Port discovery: --port=0 (default) binds an ephemeral port;
// --port-file=FILE atomically publishes the bound port (written to a temp
// file and renamed), so test harnesses and CI can start agents and learn
// their ports without a race.
//
// Fault injection: HS_FAULT's network tokens (drop-conn-at-cell,
// kill-agent-at-cell, torn-frame-at-cell, stall-at-cell — see
// exp/fault_plan.h) fire here, gated on the unit's attempt number, when
// the agent is about to relay the named cell's row. Worker-level tokens
// ride through untouched: the spawned hs_worker reads HS_FAULT itself.
#include <charconv>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "exp/fault_plan.h"
#include "exp/sharded_runner.h"
#include "exp/transport.h"
#include "util/cli.h"
#include "util/file_util.h"
#include "util/parse.h"
#include "util/socket.h"
#include "util/subprocess.h"

namespace {

using namespace hs;

/// Global spec index of a `row {"index":N,...` frame, or -1 for any other
/// line (the agent relays it anyway; the orchestrator classifies it).
long long CellIndexOf(const std::string& line) {
  constexpr std::string_view kPrefix = "row {\"index\":";
  long long value = -1;  // from_chars leaves it untouched on failure
  if (line.rfind(kPrefix, 0) == 0) {
    std::from_chars(line.data() + kPrefix.size(), line.data() + line.size(), value);
  }
  return value;
}

struct UnitHeader {
  int origin = 0;
  int attempt = 1;
  int cells = 0;
  int threads = 0;
};

/// Parses "unit origin=K attempt=N cells=M [threads=T]". Every value must
/// be a plain decimal that fits an int; errors name the offending token.
UnitHeader ParseUnitHeader(const std::string& line) {
  UnitHeader header;
  bool saw_cells = false;
  std::istringstream tokens(line.substr(5));  // past "unit "
  for (std::string token; tokens >> token;) {
    const std::size_t eq = token.find('=');
    const std::string key = token.substr(0, eq);
    const std::string text = eq == std::string::npos ? "" : token.substr(eq + 1);
    const std::optional<std::int64_t> parsed = ParseInt(text, 0, INT_MAX);
    if (!parsed) throw std::runtime_error("bad unit header token '" + token + "'");
    const int value = static_cast<int>(*parsed);
    if (key == "origin") {
      header.origin = value;
    } else if (key == "attempt") {
      if (value < 1) {
        throw std::runtime_error("unit header '" + token + "': attempts start at 1");
      }
      header.attempt = value;
    } else if (key == "cells") {
      header.cells = value;
      saw_cells = true;
    } else if (key == "threads") {
      header.threads = value;
    } else {
      throw std::runtime_error("unknown unit header key in '" + token + "'");
    }
  }
  if (!saw_cells) throw std::runtime_error("unit header missing cells=");
  return header;
}

struct AgentConfig {
  std::string worker_bin;
  int threads = 0;
};

/// Serves one unit on `conn`. Throws on protocol violations and send
/// failures; the caller answers with `err msg=` when the connection still
/// works and drops it otherwise.
void ServeUnit(Socket& conn, const AgentConfig& config) {
  SendLine(conn, kFabricGreeting);

  std::string header_line;
  const RecvLineStatus header_status = conn.RecvLineWithTimeout(30.0, &header_line);
  if (header_status != RecvLineStatus::kLine) return;  // silent/idle probe: drop
  if (header_line.rfind("unit ", 0) != 0) {
    throw std::runtime_error("expected 'unit ...' header, got '" + header_line + "'");
  }
  const UnitHeader header = ParseUnitHeader(header_line);

  std::string shard_text = std::string(kShardHeader) + '\n';
  for (int i = 0; i < header.cells; ++i) {
    std::string cell_line;
    if (conn.RecvLineWithTimeout(10.0, &cell_line) != RecvLineStatus::kLine) {
      throw std::runtime_error("connection ended mid-unit (cell " +
                               std::to_string(i) + " of " +
                               std::to_string(header.cells) + ")");
    }
    shard_text += cell_line;
    shard_text += '\n';
  }
  std::string end_line;
  if (conn.RecvLineWithTimeout(10.0, &end_line) != RecvLineStatus::kLine ||
      end_line != "end") {
    throw std::runtime_error("expected 'end' after " +
                             std::to_string(header.cells) + " cells");
  }

  FaultPlan fault = FaultPlanFromEnv();
  if (!fault.ActiveOn(header.attempt)) fault = FaultPlan{};  // healed on retry

  const int threads = header.threads > 0 ? header.threads : config.threads;
  int stdout_pipe = -1;
  // On every exit path (a thrown SendAll included) proc's destructor kills
  // and reaps a worker that is still running.
  Subprocess proc =
      SpawnWorker(config.worker_bin, shard_text, header.attempt, threads, &stdout_pipe);

  // Relay the worker's stdout line by line; a torn final row gets its
  // newline here, and the orchestrator's torn-row rule classifies it.
  Socket worker_out(stdout_pipe);
  for (;;) {
    std::string line;
    const RecvLineStatus read = worker_out.RecvLineWithTimeout(0.01, &line);
    if (read == RecvLineStatus::kEof) break;
    if (read == RecvLineStatus::kTimeout) {
      if (conn.PeerClosed()) return;  // orchestrator gave up on this unit
      continue;
    }
    const long long global = CellIndexOf(line);
    if (global >= 0 && fault.kill_agent_at_cell == global) {
      // A dead host: the whole agent vanishes, taking its worker along
      // (the worker dies with the process group is not guaranteed, so
      // kill it first for hygiene).
      proc.Kill();
      proc.Wait();
      std::raise(SIGKILL);
    }
    if (global >= 0 && fault.drop_conn_at_cell == global) {
      return;  // proc's destructor kills the worker; the orchestrator sees EOF
    }
    if (global >= 0 && fault.torn_frame_at_cell == global) {
      conn.SendAll(std::string_view(line).substr(0, (line.size() + 1) / 2));
      return;  // torn frame on the wire, then EOF
    }
    if (global >= 0 && fault.stall_at_cell == global) {
      // Keep the connection open but go silent: only the orchestrator's
      // inactivity monitor can end this unit. Its hangup releases us.
      proc.Kill();
      proc.Wait();
      while (!conn.PeerClosed()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      return;
    }
    SendLine(conn, line);
  }
  while (!proc.WaitFor(0.01)) {
    if (conn.PeerClosed()) return;  // closed its stdout, then wedged
  }

  std::istringstream err_lines(proc.StderrText());
  for (std::string line; std::getline(err_lines, line);) SendLine(conn, "log " + line);
  const ProcessStatus status = proc.Wait();
  if (!status.spawned) {
    SendLine(conn, "err msg=worker spawn failed: " + status.error);
    return;
  }
  if (status.signaled) {
    SendLine(conn, "done signal=" + std::to_string(status.term_signal));
  } else {
    SendLine(conn, "done exit=" + std::to_string(status.exit_code));
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv);
    const std::int64_t port = args.GetInt("port", 0);
    const std::string port_file = args.GetString("port-file", "");
    AgentConfig config;
    config.worker_bin = args.GetString("worker-bin", DefaultWorkerCommand());
    (void)args.Has("work-dir");  // accepted and ignored: no unit writes a file
    config.threads = static_cast<int>(args.GetInt("threads", 0));
    const bool bind_any = args.GetBool("bind-any", false);
    args.RejectUnknown();
    if (port < 0 || port > 65535) {
      throw std::invalid_argument("--port=" + std::to_string(port) + " is not in 0..65535");
    }

    TcpListener listener(static_cast<std::uint16_t>(port), bind_any);
    if (!port_file.empty()) {
      // Atomic publish: harnesses poll for the file, then read the port.
      const std::string tmp = port_file + ".tmp";
      WriteTextFile(tmp, std::to_string(listener.port()) + "\n");
      if (std::rename(tmp.c_str(), port_file.c_str()) != 0) {
        std::fprintf(stderr, "hs_agent: cannot publish port file %s\n",
                     port_file.c_str());
        return 1;
      }
    }
    std::fprintf(stderr, "hs_agent: listening on %s:%u, worker %s\n",
                 bind_any ? "0.0.0.0" : "127.0.0.1", listener.port(),
                 config.worker_bin.c_str());

    for (std::size_t unit_seq = 0;; ++unit_seq) {
      Socket conn = listener.Accept();
      try {
        ServeUnit(conn, config);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "hs_agent: unit %zu failed: %s\n", unit_seq, e.what());
        try {
          SendLine(conn, std::string("err msg=") + e.what());
        } catch (const std::exception&) {
          // The connection is gone; the orchestrator sees EOF instead.
        }
      }
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "hs_agent: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hs_agent: %s\n", e.what());
    return 1;
  }
}
