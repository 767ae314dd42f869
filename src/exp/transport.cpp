#include "exp/transport.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/parse.h"
#include "util/socket.h"

namespace hs {

namespace {

bool StartsWith(const std::string& text, const char* prefix) {
  return text.rfind(prefix, 0) == 0;
}

/// The tail of a worker's stderr, for error messages and quarantine
/// records.
std::string TailOf(std::string text, std::size_t max_bytes = 2000) {
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) text.pop_back();
  if (text.empty()) return "<empty stderr>";
  if (text.size() > max_bytes) text = "..." + text.substr(text.size() - max_bytes);
  return text;
}

// --- local fork/exec ---------------------------------------------------------

/// One hs_worker with its stdout on a pipe; waitpid says when it ended.
class LocalExecTask final : public TransportTask {
 public:
  LocalExecTask(Subprocess proc, int stdout_pipe, std::string worker_cmd)
      : proc_(std::move(proc)),
        reader_(Socket(stdout_pipe)),
        worker_cmd_(std::move(worker_cmd)) {}

  bool Poll() override {
    const bool ended = reader_.Drain();
    if (!proc_.Poll()) return false;
    if (!ended) reader_.Drain();  // what it wrote just before exiting
    return true;
  }

  std::uint64_t activity() override { return reader_.activity(); }

  void Kill() override {
    proc_.Kill();  // SIGKILL; Wait() reaps promptly so Poll() turns true
    proc_.Wait();
  }

  TransportOutcome Take() override {
    TransportOutcome outcome;
    const std::string who = "worker ('" + worker_cmd_ + "')";
    reader_.TakeRows(who, outcome);
    const ProcessStatus status = proc_.Wait();
    outcome.clean = status.ok();
    if (!outcome.clean) {
      outcome.status = who + " failed: " + status.Describe() +
                       "; stderr: " + TailOf(proc_.StderrText());
    }
    return outcome;
  }

 private:
  Subprocess proc_;
  FrameReader reader_;
  std::string worker_cmd_;
};

/// A launch that failed before reaching any executor: immediately finished
/// with an `infrastructure` outcome.
class FailedLaunchTask final : public TransportTask {
 public:
  explicit FailedLaunchTask(std::string status) {
    outcome_.infrastructure = true;
    outcome_.status = std::move(status);
  }
  bool Poll() override { return true; }
  std::uint64_t activity() override { return 0; }
  void Kill() override {}
  TransportOutcome Take() override { return outcome_; }

 private:
  TransportOutcome outcome_;
};

}  // namespace

// --- FrameReader -------------------------------------------------------------

bool FrameReader::Drain() {
  while (stream_.valid()) {
    std::string line;
    RecvLineStatus status;
    try {
      status = stream_.RecvLineWithTimeout(0.0, &line);
    } catch (const std::exception& e) {
      read_error_ = e.what();
      break;
    }
    if (status == RecvLineStatus::kTimeout) return false;
    if (status == RecvLineStatus::kEof) break;
    activity_ += line.size() + 1;
    if (StartsWith(line, "row ")) {
      rows_.push_back(line.substr(4));
    } else if (StartsWith(line, "log ")) {
      log_ += line.substr(4) + '\n';
      constexpr std::size_t kMaxLog = 64 * 1024;
      if (log_.size() > kMaxLog) log_.erase(0, log_.size() - kMaxLog);
    } else if (StartsWith(line, "done ") || StartsWith(line, "err ")) {
      terminal_ = line;
      break;
    } else if (!line.empty() && !StartsWith(line, "# hs-progress")) {
      // Not a known frame: a row cut short before its "row " prefix.
      // TakeRows applies the torn-vs-skew rule to it like any row.
      rows_.push_back(line);
    }
  }
  stream_.Close();
  return true;
}

std::string FrameReader::LogTail() const { return TailOf(log_); }

void FrameReader::TakeRows(const std::string& source, TransportOutcome& outcome) const {
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    try {
      outcome.rows.push_back(ParseWorkerRow(rows_[i]));
    } catch (const std::exception& e) {
      if (i + 1 == rows_.size()) {
        outcome.torn_final_line = true;  // the writer died mid-row
        return;
      }
      throw std::runtime_error(source + " sent a malformed result row mid-stream (" +
                               e.what() + ")");
    }
  }
}

// --- host list ---------------------------------------------------------------

std::vector<HostEndpoint> ParseHostList(const std::string& hosts) {
  std::vector<HostEndpoint> out;
  std::size_t pos = 0;
  while (pos <= hosts.size()) {
    const std::size_t comma = hosts.find(',', pos);
    std::string entry = hosts.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? hosts.size() + 1 : comma + 1;
    while (!entry.empty() && entry.front() == ' ') entry.erase(entry.begin());
    while (!entry.empty() && entry.back() == ' ') entry.pop_back();
    if (entry.empty()) {
      if (hosts.empty()) break;  // an empty list is "run locally"
      throw std::invalid_argument("host list: empty entry in '" + hosts + "'");
    }
    const std::size_t colon = entry.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == entry.size()) {
      throw std::invalid_argument("host list: entry '" + entry +
                                  "' is not host:port");
    }
    const std::optional<std::int64_t> port = ParseInt(entry.substr(colon + 1), 1, 65535);
    if (!port) {
      throw std::invalid_argument("host list: bad port in '" + entry +
                                  "' (want 1..65535)");
    }
    out.push_back(HostEndpoint{entry.substr(0, colon),
                               static_cast<std::uint16_t>(*port)});
  }
  return out;
}

// --- worker spawn ------------------------------------------------------------

Subprocess SpawnWorker(const std::string& worker_bin, const std::string& shard_text,
                       int attempt, int threads, int* stdout_pipe) {
  std::vector<std::string> argv = {worker_bin, "--shard=/dev/stdin", "--out=/dev/stdout",
                                   "--attempt=" + std::to_string(attempt)};
  if (threads > 0) argv.push_back("--threads=" + std::to_string(threads));
  return Subprocess::SpawnPiped(argv, stdout_pipe, shard_text);
}

// --- LocalExecTransport ------------------------------------------------------

LocalExecTransport::LocalExecTransport(std::string worker_cmd, int worker_threads,
                                       std::size_t slots)
    : worker_cmd_(std::move(worker_cmd)),
      worker_threads_(worker_threads),
      slots_(slots == 0 ? 1 : slots) {}

std::string LocalExecTransport::Describe() const {
  return "local-exec (" + std::to_string(slots_) + " slots)";
}

std::unique_ptr<TransportTask> LocalExecTransport::Launch(
    const std::vector<std::size_t>& indices, const std::vector<SimSpec>& specs,
    std::size_t /*origin_shard*/, int attempt) {
  std::ostringstream shard;
  WriteShardFile(shard, indices, specs);
  int stdout_pipe = -1;
  Subprocess proc =
      SpawnWorker(worker_cmd_, shard.str(), attempt, worker_threads_, &stdout_pipe);
  return std::make_unique<LocalExecTask>(std::move(proc), stdout_pipe, worker_cmd_);
}

// --- TcpTransport ------------------------------------------------------------

/// One unit streaming back from an hs_agent; a `done`/`err` frame says
/// when it ended.
class TcpTransportTask final : public TransportTask {
 public:
  TcpTransportTask(TcpTransport* transport, std::size_t slot_index, Socket sock)
      : transport_(transport), slot_index_(slot_index), reader_(std::move(sock)) {}

  ~TcpTransportTask() override { Release(); }

  bool Poll() override {
    if (!reader_.Drain()) return false;
    Release();
    return true;
  }

  std::uint64_t activity() override { return reader_.activity(); }

  void Kill() override {
    killed_ = true;
    reader_.Close();  // the agent sees the hangup and kills its worker
    Release();
  }

  TransportOutcome Take() override {
    TransportOutcome outcome;
    const std::string agent = "agent " + transport_->agents_[slot_index_].endpoint.Label();
    reader_.TakeRows(agent, outcome);
    const std::string& end = reader_.terminal();
    outcome.clean = !killed_ && end == "done exit=0";
    if (outcome.clean) return outcome;
    if (killed_) {
      outcome.status = agent + ": unit killed by the orchestrator";
    } else if (StartsWith(end, "done ")) {
      std::string describe = end.substr(5);  // "exit=C" or "signal=S"
      std::replace(describe.begin(), describe.end(), '=', ' ');
      outcome.status = agent + ": worker failed: " + describe + "; stderr: " + reader_.LogTail();
    } else if (StartsWith(end, "err ")) {
      outcome.status = agent + " error: " + end.substr(4);
    } else if (!reader_.read_error().empty()) {
      outcome.status = agent + " connection error: " + reader_.read_error() +
                       "; stderr: " + reader_.LogTail();
    } else {
      outcome.status = agent + " connection lost mid-unit (agent died or dropped the "
                       "link); stderr: " + reader_.LogTail();
    }
    return outcome;
  }

 private:
  void Release() {
    if (released_) return;
    released_ = true;
    transport_->agents_[slot_index_].busy = false;
  }

  TcpTransport* transport_;
  std::size_t slot_index_;
  FrameReader reader_;
  bool killed_ = false;
  bool released_ = false;
};

TcpTransport::TcpTransport(std::vector<HostEndpoint> hosts,
                           TcpTransportOptions options)
    : options_(options) {
  if (hosts.empty()) {
    throw std::invalid_argument("TcpTransport: need at least one host");
  }
  for (HostEndpoint& host : hosts) {
    agents_.push_back(AgentSlot{std::move(host)});
  }
}

std::string TcpTransport::Describe() const {
  std::string list;
  for (const AgentSlot& agent : agents_) {
    if (!list.empty()) list += ", ";
    list += agent.endpoint.Label();
  }
  return "tcp (" + std::to_string(agents_.size()) + " agents: " + list + ")";
}

bool TcpTransport::AllSlotsDead(std::size_t threshold) const {
  for (const AgentSlot& agent : agents_) {
    if (agent.consecutive_failures < threshold) return false;
  }
  return true;
}

std::unique_ptr<TransportTask> TcpTransport::Launch(
    const std::vector<std::size_t>& indices, const std::vector<SimSpec>& specs,
    std::size_t origin_shard, int attempt) {
  AgentSlot* pick = nullptr;
  std::size_t pick_index = 0;
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    AgentSlot& agent = agents_[i];
    if (agent.busy) continue;
    if (pick == nullptr || agent.consecutive_failures < pick->consecutive_failures) {
      pick = &agent;
      pick_index = i;
    }
  }
  if (pick == nullptr) {
    throw std::logic_error("TcpTransport::Launch called with no idle agent slot");
  }
  pick->busy = true;
  try {
    Socket sock = ConnectTcp(pick->endpoint.host, pick->endpoint.port,
                             options_.connect_timeout_s);
    std::string greeting;
    if (sock.RecvLineWithTimeout(options_.connect_timeout_s, &greeting) !=
        RecvLineStatus::kLine) {
      throw std::runtime_error("no greeting within " +
                               std::to_string(options_.connect_timeout_s) + "s");
    }
    if (greeting != kFabricGreeting) {
      throw std::runtime_error("unexpected greeting '" + greeting +
                               "' (agent version skew?)");
    }
    std::ostringstream message;
    message << "unit origin=" << origin_shard << " attempt=" << attempt
            << " cells=" << indices.size();
    if (options_.worker_threads > 0) message << " threads=" << options_.worker_threads;
    message << '\n';
    WriteShardCells(message, indices, specs);
    message << "end\n";
    sock.SendAll(message.str());
    pick->consecutive_failures = 0;
    return std::make_unique<TcpTransportTask>(this, pick_index, std::move(sock));
  } catch (const std::exception& e) {
    pick->consecutive_failures += 1;
    pick->busy = false;
    return std::make_unique<FailedLaunchTask>(
        "agent " + pick->endpoint.Label() + " unreachable: " + e.what());
  }
}

}  // namespace hs
