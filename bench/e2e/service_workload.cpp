// service_mix: live hs_servers over loopback, each driven through one
// session of the client script by two connections. A session starts a
// fresh server, runs its rounds, then its what-if probes, checks a
// snapshot replay and shuts the server down; the run repeats sessions
// until its measured time is up, so its rounds spread over the whole run
// instead of one burst of a second, which a host hiccup could swamp.
//
// The round is the workload's operation. The writer connection sends
// `advance` one simulated hour, a `cancel` of the previous round's
// reservation, a 128-node `submit` and a new reservation (a submit due in
// two hours, so it is still pending when the next round cancels it); the
// reader connection sends three `query-job` and a `query-metrics`. Each
// connection has one request in flight at a time, both at once, and the
// round ends when both are answered: it carries request parsing and
// dispatch, the socket layer of both connections, the server's
// reader/writer lock that both take, and the switches between the server
// threads. One client thread drives both connections through poll(2), so
// no client thread hand-off sits inside a round, and the client and its
// servers share one core (PinToOneCpu says why).
//
// The probes -- live-mechanism whatifs (the fork path), the session's last
// one `whatif mechanisms=all` (the replay path) -- are timed on their own,
// outside the rounds: each stalls about 40 ms on delayed ACKs (README,
// Finding 1), and interleaved with the rounds the cores idled through each
// stall and the next rounds ran two to three times slower. A traced run
// replays session 0 in process through HandleRequestLine, which splits
// the round into dispatch and wire.
#include <poll.h>
#include <sched.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>

#include "exp/runner.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service_session.h"
#include "traced_cell.h"
#include "util/socket.h"
#include "util/subprocess.h"
#include "workloads.h"

namespace e2e {

namespace {

constexpr std::size_t kHeadroom = 20000;
constexpr const char* kLiveMechanism = "CUP&SPAA";
constexpr int kJobQueriesPerRound = 3;
constexpr int kProbesPerSession = 13;

/// The deployment: one fixed background trace, whatever the seed. --seed
/// drives the client traffic. A seeded trace would make the server's
/// memory and step costs follow the seed (midsize job counts vary 32%
/// between seeds; peak RSS swung 19%).
hs::SimSpec ServerSpec(const Options& options) {
  hs::SimSpec spec = hs::SimSpec::Parse(std::string(kLiveMechanism) + "/FCFS/W5/preset=midsize");
  spec.weeks = options.smoke ? 1 : 8;
  spec.seed = 1;
  return spec;
}

/// Rounds of a session: one simulated hour each, within the trace.
int SessionRounds(const Options& options) { return options.smoke ? 60 : 1300; }

/// The two what-if paths a probe takes.
enum WhatIf { kFork, kReplay, kWhatIfPaths };

/// A session's client script, deterministic in its seed. A round names
/// jobs of earlier rounds only, so it is known before it is sent.
class Script {
 public:
  explicit Script(std::uint64_t seed) : rng_(seed) {}

  /// Round writes: advance an hour, cancel `reserved` (the previous
  /// round's reservation; < 0: none), submit a job due in a minute, and
  /// last a new reservation due in two hours.
  std::vector<std::string> Writes(long long reserved) {
    std::vector<std::string> lines = {"advance by=3600"};
    if (reserved >= 0) lines.push_back("cancel job=" + std::to_string(reserved));
    for (const char* due : {"60", "7200"}) {
      const long long compute = 600 + static_cast<long long>(rng_() % 14400);
      const long long estimate = compute + 900 + static_cast<long long>(rng_() % 3600);
      lines.push_back("submit class=rigid size=128 submit=+" + std::string(due) +
                      " compute=" + std::to_string(compute) +
                      " estimate=" + std::to_string(estimate));
    }
    return lines;
  }
  /// Round reads: query-job of jobs in [lo, hi] (lo < 0: none yet), then
  /// query-metrics.
  std::vector<std::string> Reads(long long lo, long long hi) {
    std::vector<std::string> lines;
    for (int j = 0; j < kJobQueriesPerRound; ++j) {
      if (lo < 0) {
        lines.push_back("query-metrics");
        continue;
      }
      const auto span = static_cast<unsigned long long>(hi - lo + 1);
      lines.push_back("query-job job=" +
                      std::to_string(lo + static_cast<long long>(rng_() % span)));
    }
    lines.push_back("query-metrics");
    return lines;
  }
  /// The session's p-th what-if probe, with its verb class.
  std::pair<std::string, WhatIf> Probe(int p) {
    const std::string probe = "class=rigid size=" + std::to_string(128 * (1 + rng_() % 4)) +
                              " submit=+60 compute=" + std::to_string(1800 + rng_() % 7200);
    if (p == kProbesPerSession - 1) {
      return {"whatif mechanisms=all " + probe, kReplay};
    }
    return {"whatif mechanisms=" + std::string(kLiveMechanism) + " " + probe, kFork};
  }

 private:
  std::mt19937_64 rng_;
};

/// Job ids a round's writer replies name: its first submit and its
/// reservation (the last two replies).
struct RoundJobs {
  long long first = -1;
  long long reserved = -1;
};

RoundJobs JobsOf(const std::vector<std::string>& replies) {
  const auto id = [](const std::string& reply) {
    return reply.rfind("ok job=", 0) == 0 ? std::stoll(reply.substr(7)) : -1;
  };
  return {id(replies.at(replies.size() - 2)), id(replies.back())};
}

/// Sends one request and reads its whole response (one line, or an
/// `ok n=K` ... `end` frame).
std::vector<std::string> Exchange(hs::Socket& socket, const std::string& line) {
  hs::SendLine(socket, line);
  std::vector<std::string> lines;
  for (;;) {
    std::optional<std::string> reply = socket.RecvLine();
    if (!reply.has_value()) throw std::runtime_error("server hung up on '" + line + "'");
    lines.push_back(std::move(*reply));
    if (lines.size() == 1 && lines[0].rfind("ok n=", 0) != 0) break;
    if (lines.back() == "end") break;
  }
  return lines;
}

/// Sends `writes` on `writer` and `reads` on `reader`, one request in
/// flight per connection and both connections at once, and returns each
/// connection's one-line replies.
std::pair<std::vector<std::string>, std::vector<std::string>> RunRound(
    hs::Socket& writer, const std::vector<std::string>& writes, hs::Socket& reader,
    const std::vector<std::string>& reads) {
  struct Stream {
    hs::Socket& socket;
    const std::vector<std::string>& lines;
    std::vector<std::string> replies;
    bool busy() const { return replies.size() < lines.size(); }
  };
  Stream streams[2] = {{writer, writes, {}}, {reader, reads, {}}};
  for (Stream& stream : streams) hs::SendLine(stream.socket, stream.lines.at(0));
  while (streams[0].busy() || streams[1].busy()) {
    pollfd fds[2];
    Stream* polled[2];
    nfds_t n = 0;
    for (Stream& stream : streams) {
      if (!stream.busy()) continue;
      fds[n] = {stream.socket.fd(), POLLIN, 0};
      polled[n++] = &stream;
    }
    if (::poll(fds, n, -1) < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("poll failed in a service round");
    }
    for (nfds_t k = 0; k < n; ++k) {
      if (fds[k].revents == 0) continue;
      Stream& stream = *polled[k];
      std::optional<std::string> reply = stream.socket.RecvLine();
      if (!reply.has_value()) throw std::runtime_error("server hung up in a service round");
      stream.replies.push_back(std::move(*reply));
      if (stream.busy()) hs::SendLine(stream.socket, stream.lines[stream.replies.size()]);
    }
  }
  return {std::move(streams[0].replies), std::move(streams[1].replies)};
}

std::uint64_t Digest(const std::vector<std::string>& lines, std::uint64_t hash) {
  for (const std::string& line : lines) hash = Fnv1a(line + "\n", hash);
  return hash;
}

bool IsOk(const std::string& reply) { return reply.rfind("ok", 0) == 0; }

/// Confines the calling thread -- the client -- and the servers it then
/// spawns to one CPU, the last it may use, so a round is the CPU cost of
/// serving it: parsing, dispatch, the lock, socket calls and the context
/// switches between client and server threads. Spread over two or four
/// cores of a shared 4-vCPU VM, cross-core wake-ups made rounds bimodal
/// (0.085 or 0.15 ms, switching every few seconds), and across ten seeds
/// the run's median spread 13% and its p90 25%; on one core, 1% and 2%.
/// The price: the two server threads never run at once, so contention
/// that needs parallel readers and writers is not measured.
void PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

/// One hs_server child.
class Server {
 public:
  Server(const Options& options, const std::string& dir, int generation)
      : stem_(dir + "/server" + std::to_string(generation)),
        child_(hs::Subprocess::Spawn({options.bin_dir + "/hs_server",
                                      "--spec=" + ServerSpec(options).ToString(), "--port=0",
                                      "--port-file=" + stem_ + ".port",
                                      "--headroom=" + std::to_string(kHeadroom)},
                                     stem_ + ".out", stem_ + ".err")),
        port_(WaitForPortFile(stem_ + ".port", child_)) {}

  /// A new connection, past the greeting.
  hs::Socket Connect() const {
    hs::Socket socket = hs::ConnectLoopback(port_);
    const std::optional<std::string> greeting = socket.RecvLine();
    if (!greeting.has_value() || *greeting != hs::kWireGreeting) {
      throw std::runtime_error("bad hs_server greeting");
    }
    return socket;
  }

  /// Sends `shutdown` and waits for a clean exit.
  bool Shutdown(hs::Socket& socket) {
    const bool bye = Exchange(socket, "shutdown").at(0) == "ok bye";
    return child_.proc().Wait().ok() && bye;
  }

 private:
  std::string stem_;
  Child child_;
  std::uint16_t port_;
};

/// Client-side view of one session over the wire.
struct WirePass {
  std::vector<double> round_ms;
  std::vector<double> whatif_us[kWhatIfPaths];
  std::vector<double> ping_us;
  std::uint64_t writer_replies = Fnv1a("");  // digest of every writer reply, in order
  std::size_t requests = 0;
  std::size_t errors = 0;
  std::size_t round_requests = 0;
  double rounds_s = 0.0;  // wall time of the rounds
};

/// Runs a session's `rounds` rounds on `writer` and `reader`, then its
/// what-if probes on `writer`. With a log, every round and probe gets a
/// span; with `pings`, each round is followed by a ping.
WirePass RunWire(std::uint64_t seed, int rounds, hs::Socket& writer, hs::Socket& reader,
                 SpanLog* log, bool pings) {
  WirePass pass;
  Script script(seed);
  RoundJobs jobs;
  long long first_job = -1;
  const Clock::time_point start = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    const std::vector<std::string> writes = script.Writes(jobs.reserved);
    const std::vector<std::string> reads = script.Reads(first_job, jobs.reserved);
    const int span = log != nullptr ? log->Begin("round") : -1;
    const Clock::time_point t0 = Clock::now();
    const auto [replies, read_replies] = RunRound(writer, writes, reader, reads);
    pass.round_ms.push_back(Since(t0) * 1e3);
    if (log != nullptr) log->End(span);

    pass.requests += writes.size() + reads.size();
    for (const std::string& reply : replies) pass.errors += !IsOk(reply);
    for (const std::string& reply : read_replies) pass.errors += !IsOk(reply);
    pass.writer_replies = Digest(replies, pass.writer_replies);
    jobs = JobsOf(replies);
    if (first_job < 0) first_job = jobs.first;
    if (pings) {
      const Clock::time_point p0 = Clock::now();
      Exchange(writer, "ping");
      pass.ping_us.push_back(Since(p0) * 1e6);
    }
  }
  pass.rounds_s = Since(start);
  pass.round_requests = pass.requests;

  for (int p = 0; p < kProbesPerSession; ++p) {
    const auto [line, path] = script.Probe(p);
    const int span = log != nullptr ? log->Begin(line.substr(0, line.find(' '))) : -1;
    const Clock::time_point t0 = Clock::now();
    const std::vector<std::string> reply = Exchange(writer, line);
    pass.whatif_us[path].push_back(Since(t0) * 1e6);
    if (log != nullptr) log->End(span);
    ++pass.requests;
    pass.errors += !IsOk(reply[0]);
    pass.writer_replies = Digest(reply, pass.writer_replies);
  }
  return pass;
}

/// The same session dispatched in process: dispatch times by verb (the
/// what-if paths apart), each round's total dispatch time, and the
/// writer's replies.
struct DispatchPass {
  std::vector<double> round_ms;
  std::map<std::string, std::vector<double>> verb_us;
  std::uint64_t writer_replies = Fnv1a("");
};

DispatchPass RunDispatch(const Options& options, std::uint64_t seed, int rounds, SpanLog& log) {
  DispatchPass pass;
  hs::ServiceSession session(ServerSpec(options), kHeadroom);
  const auto dispatch = [&](const std::string& line, const std::string& verb, bool writer) {
    const int span = log.Begin(verb);
    const Clock::time_point t0 = Clock::now();
    hs::WireResponse response = hs::HandleRequestLine(session, line);
    const double us = Since(t0) * 1e6;
    log.End(span);
    pass.verb_us[verb].push_back(us);
    if (writer) pass.writer_replies = Digest(response.lines, pass.writer_replies);
    return std::make_pair(std::move(response.lines), us);
  };
  const auto verb_of = [](const std::string& line) { return line.substr(0, line.find(' ')); };
  Script script(seed);
  RoundJobs jobs;
  long long first_job = -1;
  for (int r = 0; r < rounds; ++r) {
    const std::vector<std::string> writes = script.Writes(jobs.reserved);
    const std::vector<std::string> reads = script.Reads(first_job, jobs.reserved);
    const int span = log.Begin("round");
    double round_us = 0.0;
    std::vector<std::string> replies;
    for (const std::string& line : writes) {
      auto [lines, us] = dispatch(line, verb_of(line), true);
      replies.push_back(lines.at(0));
      round_us += us;
    }
    for (const std::string& line : reads) round_us += dispatch(line, verb_of(line), false).second;
    log.End(span);
    pass.round_ms.push_back(round_us / 1e3);
    jobs = JobsOf(replies);
    if (first_job < 0) first_job = jobs.first;
  }
  for (int p = 0; p < kProbesPerSession; ++p) {
    const auto [line, path] = script.Probe(p);
    dispatch(line, path == kFork ? "whatif-fork" : "whatif-replay", true);
  }
  return pass;
}

/// Takes a snapshot of the live server, replays it in process and
/// compares query-metrics byte for byte; returns an empty string when
/// they match, else what differed.
std::string CheckSnapshotReplay(hs::Socket& writer, const std::string& path,
                                std::vector<double>& snapshot_ms,
                                std::vector<double>& restore_ms) {
  Clock::time_point t0 = Clock::now();
  const std::string snap_reply = Exchange(writer, "snapshot path=" + path).at(0);
  snapshot_ms.push_back(Since(t0) * 1e3);
  if (!IsOk(snap_reply)) return snap_reply;
  const std::string live = Exchange(writer, "query-metrics").at(0);
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  t0 = Clock::now();
  const std::unique_ptr<hs::ServiceSession> restored =
      hs::ServiceSession::RestoreText(text.str());
  restore_ms.push_back(Since(t0) * 1e3);
  const std::string replayed = hs::HandleRequestLine(*restored, "query-metrics").lines.at(0);
  return replayed == live ? "" : "live '" + live + "', replayed '" + replayed + "'";
}

}  // namespace

void RunServiceWorkload(const Options& options, Report& report) {
  const std::string dir = options.work_dir + "/service";
  std::filesystem::create_directories(dir);
  PinToOneCpu();
  const int rounds = SessionRounds(options);

  // Sessions until the measured time is up; set-up is each server's spawn
  // until the greeting.
  std::vector<double> setup_s;
  std::vector<double> round_ms;
  std::vector<double> whatif_us;
  std::vector<double> snapshot_ms;
  std::vector<double> restore_ms;
  std::size_t round_requests = 0;
  double rounds_s = 0.0;
  std::size_t errors = 0;
  std::string replay_failure;
  int unclean_exits = 0;
  WirePass first;  // session 0, which a traced run repeats
  const Clock::time_point deadline =
      After(options.traced ? options.seconds / 2 : options.seconds);
  int sessions = 0;
  for (; sessions == 0 || Clock::now() < deadline; ++sessions) {
    const Clock::time_point t0 = Clock::now();
    Server server(options, dir, sessions);
    hs::Socket writer = server.Connect();
    setup_s.push_back(Since(t0));
    hs::Socket reader = server.Connect();
    WirePass pass = RunWire(ScenarioSeed(options.seed, static_cast<std::size_t>(sessions)),
                            rounds, writer, reader, nullptr, false);
    const std::string replay = CheckSnapshotReplay(
        writer, std::filesystem::absolute(dir + "/session" + std::to_string(sessions) + ".snap")
                    .string(),
        snapshot_ms, restore_ms);
    if (!replay.empty() && replay_failure.empty()) replay_failure = replay;
    unclean_exits += !server.Shutdown(writer);

    report.Attempted(pass.requests);
    report.Failed(pass.errors);
    errors += pass.errors;
    round_ms.insert(round_ms.end(), pass.round_ms.begin(), pass.round_ms.end());
    whatif_us.insert(whatif_us.end(), pass.whatif_us[kFork].begin(),
                     pass.whatif_us[kFork].end());
    round_requests += pass.round_requests;
    rounds_s += pass.rounds_s;
    if (sessions == 0) first = std::move(pass);
  }
  report.Check("replies", errors == 0, std::to_string(errors) + " err replies");
  report.Check("snapshot_replay", replay_failure.empty(),
               replay_failure.empty() ? std::to_string(sessions) + " sessions" : replay_failure);
  report.Check("server_exit", unclean_exits == 0,
               std::to_string(unclean_exits) + " of " + std::to_string(sessions) +
                   " servers did not shut down cleanly");

  ReportEndToEnd(report, round_ms, setup_s);
  report.Metric("svc_rps", static_cast<double>(round_requests) / rounds_s, "1/s");
  report.Metric("svc_whatif_p50_ms", hs::Percentile(whatif_us, 0.50) / 1e3, "ms");
  report.Metric("svc_whatif_p95_ms", hs::Percentile(whatif_us, 0.95) / 1e3, "ms");
  report.Metric("svc_whatif_samples", static_cast<double>(whatif_us.size()), "count");
  report.Metric("svc_sessions", static_cast<double>(sessions), "count");
  report.Metric("service.snapshot_ms", hs::Percentile(snapshot_ms, 0.50), "ms");
  report.Metric("service.restore_ms", hs::Percentile(restore_ms, 0.50), "ms");
  if (!options.traced) return;

  // Traced pass: session 0 again on a fresh server with spans and a ping
  // after each round, then in process, then the server's background
  // simulation through the traced harness.
  const std::uint64_t seed = ScenarioSeed(options.seed, 0);
  SpanLog wire_log(1);
  SpanLog local_log(2);
  WirePass traced;
  {
    Server fresh(options, dir, sessions);
    hs::Socket w = fresh.Connect();
    hs::Socket r = fresh.Connect();
    const int span = wire_log.Begin(options.workload + " wire");
    traced = RunWire(seed, rounds, w, r, &wire_log, true);
    wire_log.End(span);
    report.Check("traced_server_exit", fresh.Shutdown(w), "traced server shut down cleanly");
  }
  report.Attempted(traced.requests);
  report.Failed(traced.errors);

  const int local_span = local_log.Begin(options.workload + " dispatch");
  const DispatchPass local = RunDispatch(options, seed, rounds, local_log);
  local_log.End(local_span);
  report.Check("dispatch_replies", local.writer_replies == first.writer_replies &&
                                       traced.writer_replies == first.writer_replies,
               "in-process and traced writer replies vs the untraced session 0");

  LayerTotals totals;
  DiscardStream csv;
  hs::CsvResultSink sink(csv);
  const hs::SimSpec spec = ServerSpec(options);
  const int harness_span = local_log.Begin("harness " + spec.ToString());
  const Clock::time_point t0 = Clock::now();
  const auto trace = std::make_shared<const hs::Trace>(spec.BuildTrace());
  totals.AddTrace(Since(t0), trace->jobs.size());
  RunTracedCell(spec, trace, sink, 0, totals, local_log, true,
                static_cast<hs::SimTime>(rounds) * 3600);
  local_log.End(harness_span);

  // The round splits into its in-process dispatch (the compute) and the
  // rest: socket calls and the switches between client and server threads.
  ReportLayers(totals, report);
  const auto p50 = [](const std::vector<double>& values) { return hs::Percentile(values, 0.50); };
  const double compute_p50 = p50(local.round_ms);
  report.Metric("exp.op_compute_p50_ms", compute_p50, "ms");
  report.Metric("exp.op_overhead_p50_ms", p50(traced.round_ms) - compute_p50, "ms");
  report.Metric("exp.op_overhead_p90_ms",
                hs::Percentile(traced.round_ms, 0.90) - hs::Percentile(local.round_ms, 0.90),
                "ms");
  report.Metric("trace.overhead", Sum(traced.round_ms) / Sum(first.round_ms) - 1.0, "ratio");

  // Dispatch p50 by verb; what-if wire = client p50 - dispatch p50, and
  // the ping round trip is the independent one-line wire reading.
  for (const auto& [verb, us] : local.verb_us) {
    report.Metric("service.dispatch_" + verb + "_p50_us", p50(us), "us");
  }
  report.Metric("service.wire_whatif-fork_p50_us",
                p50(traced.whatif_us[kFork]) - p50(local.verb_us.at("whatif-fork")), "us");
  report.Metric("service.ping_p50_us", p50(traced.ping_us), "us");
  report.Metric("service.requests", static_cast<double>(traced.requests), "count");
  if (!options.trace_out.empty()) WriteChromeTrace(options.trace_out, {&wire_log, &local_log});
}

}  // namespace e2e
