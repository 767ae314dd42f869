#include "service/server.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/mechanism.h"
#include "service/protocol.h"
#include "util/stats.h"

namespace hs {

namespace {

std::string Err(const std::string& message) {
  return "err msg=" + EscapeField(message);
}

const char* StateName(ServiceSession::JobState state) {
  switch (state) {
    case ServiceSession::JobState::kUnknown: return "unknown";
    case ServiceSession::JobState::kPending: return "pending";
    case ServiceSession::JobState::kWaiting: return "waiting";
    case ServiceSession::JobState::kRunning: return "running";
    case ServiceSession::JobState::kDone: return "done";
    case ServiceSession::JobState::kKilled: return "killed";
    case ServiceSession::JobState::kCanceled: return "canceled";
  }
  return "unknown";
}

/// Resolves a `whatif mechanisms=` value to canonical names: "all" expands
/// to the registry, CSV tokens are canonicalized and deduped (first
/// occurrence wins — a duplicate must not run twice), and empty or
/// unregistered tokens throw naming the offender and the registered list
/// (the ValidateMechanism error style).
std::vector<std::string> ResolveMechanismList(const std::string& which) {
  if (which == "all") return MechanismNames();
  std::vector<std::string> resolved;
  for (const KvToken& part : Tokenize(which, ',')) {
    const std::string token(part.text);
    if (token.empty()) {
      throw std::invalid_argument("empty mechanism token in '" + which + "'");
    }
    std::string canonical;
    try {
      canonical = CanonicalMechanismName(token);
    } catch (const std::exception&) {
      std::string registered;
      for (const std::string& name : MechanismNames()) {
        if (!registered.empty()) registered += ", ";
        registered += name;
      }
      throw std::invalid_argument("unknown mechanism '" + token + "' in '" +
                                  which + "' (registered: " + registered + ")");
    }
    if (std::find(resolved.begin(), resolved.end(), canonical) ==
        resolved.end()) {
      resolved.push_back(canonical);
    }
  }
  return resolved;
}

/// The query-metrics body, shared verbatim by `query-metrics` ("ok " +
/// body) and `watch` ticks ("tick seq=K " + body + running stats).
std::string FormatMetricsBody(SimTime now, std::size_t events,
                              const SimResult& r) {
  std::string line = "now=" + std::to_string(now);
  line += " events=" + std::to_string(events);
  line += " jobs_completed=" + std::to_string(r.jobs_completed);
  line += " jobs_killed=" + std::to_string(r.jobs_killed);
  line += " preemptions=" + std::to_string(r.preemptions);
  line += " avg_turnaround_h=" + FmtExactDouble(r.avg_turnaround_h);
  line += " avg_wait_h=" + FmtExactDouble(r.avg_wait_h);
  line += " od_instant_rate=" + FmtExactDouble(r.od_instant_rate);
  line += " utilization=" + FmtExactDouble(r.utilization);
  line += " lost_node_h=" + FmtExactDouble(r.lost_node_hours);
  return line;
}

WireResponse HandleSubmit(ServiceSession& session, const Request& req) {
  JobRecord job = ParseJobFields(req, session.now());
  req.RejectUnknown();
  const JobId id = session.Submit(std::move(job));
  return {{"ok job=" + std::to_string(id) + " submit=" +
           std::to_string(session.Query(id).record.submit_time)},
          false};
}

WireResponse HandleCancel(ServiceSession& session, const Request& req) {
  const JobId id = req.GetInt("job", kNoJob);
  req.RejectUnknown();
  if (id == kNoJob) return {{Err("cancel needs job=")}, false};
  if (!session.Cancel(id)) {
    return {{Err("job " + std::to_string(id) +
                 " cannot be canceled (running, finished, or unknown)")},
            false};
  }
  return {{"ok job=" + std::to_string(id)}, false};
}

WireResponse HandleQueryJob(ServiceSession& session, const Request& req) {
  const JobId id = req.GetInt("job", kNoJob);
  req.RejectUnknown();
  const ServiceSession::JobStatus status = session.Query(id);
  if (status.state == ServiceSession::JobState::kUnknown) {
    return {{Err("unknown job " + std::to_string(id))}, false};
  }
  std::string line = "ok job=" + std::to_string(id) + " state=" +
                     StateName(status.state) + " " +
                     FormatJobFields(status.record, /*with_id=*/false);
  if (status.first_start != kNever) {
    line += " start=" + std::to_string(status.first_start);
  }
  if (status.completion != kNever) {
    line += " completion=" + std::to_string(status.completion);
  }
  if (status.state == ServiceSession::JobState::kRunning) {
    line += " alloc=" + std::to_string(status.alloc);
  }
  return {{line}, false};
}

WireResponse HandleQueryMetrics(ServiceSession& session, const Request& req) {
  req.RejectUnknown();
  return {{"ok " + FormatMetricsBody(session.now(), session.events_processed(),
                                     session.Metrics())},
          false};
}

WireResponse HandleAdvance(ServiceSession& session, const Request& req) {
  const bool has_to = req.Has("to");
  const bool has_by = req.Has("by");
  if (has_to == has_by) return {{Err("advance needs exactly one of to=|by=")}, false};
  SimTime target = 0;
  if (has_by) {
    // Time only moves forward: a negative delta is a request to time-travel,
    // not a clamp-to-now; the upper bound keeps now + by on the clock.
    target = session.now() + req.GetInt("by", 0, 0, kNever - session.now());
  } else {
    target = req.GetTime("to", session.now(), session.now());
    if (target < session.now()) {
      return {{Err("advance to=" + std::to_string(target) +
                   " is before now=" + std::to_string(session.now()) +
                   " (time only moves forward)")},
              false};
    }
  }
  req.RejectUnknown();
  session.AdvanceTo(target);
  return {{"ok now=" + std::to_string(session.now()) +
           " events=" + std::to_string(session.events_processed())},
          false};
}

/// The prepare half of `whatif`: validates the request and builds the
/// private session copies (fork/replay) with the probe submitted. The
/// concurrent server calls this under the read lock; stepping the copies
/// (FinishWhatIf) happens with no lock held.
std::vector<WhatIfRun> PrepareWhatIfRuns(const ServiceSession& session,
                                         const Request& req,
                                         const DispatchOptions& options) {
  const std::string which = req.GetString("mechanisms", "all");
  const JobRecord probe = ParseJobFields(req, session.now());
  req.RejectUnknown();
  const std::vector<std::string> mechanisms = ResolveMechanismList(which);
  if (mechanisms.empty()) {
    throw std::invalid_argument("whatif: no mechanisms named");
  }
  return session.PrepareWhatIf(probe, mechanisms, options.force_replay);
}

WireResponse FinishWhatIf(std::vector<WhatIfRun> runs) {
  WireResponse resp;
  resp.lines.push_back("ok n=" + std::to_string(runs.size()));
  for (WhatIfRun& run : runs) {
    resp.lines.push_back(FormatWhatIfAnswer(
        RunUntilStarted(*run.session, run.probe, std::move(run.mechanism))));
  }
  resp.lines.push_back("end");
  return resp;
}

WireResponse HandleWhatIf(ServiceSession& session, const Request& req,
                          const DispatchOptions& options) {
  return FinishWhatIf(PrepareWhatIfRuns(session, req, options));
}

WireResponse HandleSnapshot(ServiceSession& session, const Request& req) {
  const std::string path = req.GetString("path", "");
  req.RejectUnknown();
  if (path.empty()) return {{Err("snapshot needs path=")}, false};
  session.SnapshotTo(path);
  return {{"ok path=" + EscapeField(path) + " ops=" +
           std::to_string(session.ops_logged()) +
           " now=" + std::to_string(session.now())},
          false};
}

WireResponse HandleRestore(ServiceSession& session, const Request& req) {
  const std::string path = req.GetString("path", "");
  req.RejectUnknown();
  if (path.empty()) return {{Err("restore needs path=")}, false};
  std::unique_ptr<ServiceSession> restored = ServiceSession::RestoreFrom(path);
  session.ReplaceWith(std::move(*restored));
  return {{"ok path=" + EscapeField(path) + " ops=" +
           std::to_string(session.ops_logged()) +
           " now=" + std::to_string(session.now())},
          false};
}

/// Verbs that mutate session state and must hold the writer lock. The op
/// log orders exactly these (plus restore, which rewrites it wholesale).
bool IsMutatingVerb(const std::string& verb) {
  return verb == "submit" || verb == "cancel" || verb == "advance" ||
         verb == "restore";
}

/// The verb token of a raw request line (cheap peek, no full parse).
std::string VerbOf(const std::string& line) {
  const std::size_t space = line.find(' ');
  return line.substr(0, space == std::string::npos ? line.size() : space);
}

/// Frames a whole reply and sends it in one write: a reply split over
/// several sends stalls on the peer's delayed ACK.
void SendResponse(Socket& client, const WireResponse& resp) {
  std::string framed;
  for (const std::string& line : resp.lines) {
    framed += line;
    framed += '\n';
  }
  client.SendAll(framed);
}

}  // namespace

WireResponse HandleRequestLine(ServiceSession& session, const std::string& line,
                               const DispatchOptions& options) {
  try {
    const Request req = Request::Parse(line);
    const std::string& verb = req.verb();
    if (verb == "submit") return HandleSubmit(session, req);
    if (verb == "cancel") return HandleCancel(session, req);
    if (verb == "query-job") return HandleQueryJob(session, req);
    if (verb == "query-metrics") return HandleQueryMetrics(session, req);
    if (verb == "advance") return HandleAdvance(session, req);
    if (verb == "whatif") return HandleWhatIf(session, req, options);
    if (verb == "snapshot") return HandleSnapshot(session, req);
    if (verb == "restore") return HandleRestore(session, req);
    if (verb == "watch") {
      return {{Err("watch streams over a live server connection; "
                   "it has no one-shot dispatch form")},
              false};
    }
    if (verb == "ping") {
      req.RejectUnknown();
      return {{"ok now=" + std::to_string(session.now())}, false};
    }
    if (verb == "shutdown") {
      req.RejectUnknown();
      return {{"ok bye"}, true};
    }
    return {{Err("unknown verb '" + verb + "'")}, false};
  } catch (const std::exception& e) {
    return {{Err(e.what())}, false};
  }
}

ScheduleServer::ScheduleServer(ServiceSession& session, std::uint16_t port)
    : session_(&session), listener_(port) {}

void ScheduleServer::Serve() {
  for (;;) {
    Socket client;
    try {
      client = listener_.Accept();
    } catch (const std::exception&) {
      if (stopping_.load()) break;
      throw;
    }
    if (stopping_.load()) break;  // the RequestStop() wake-up connection
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      live_fds_.push_back(client.fd());
    }
    threads_.Spawn([this, sock = std::move(client)]() mutable {
      ServeConnection(std::move(sock));
    });
  }
  // Wake every connection thread still parked in recv (or mid-watch) so the
  // join below cannot hang on an idle client.
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const int fd : live_fds_) ShutdownFd(fd);
  }
  threads_.JoinAll();
}

void ScheduleServer::ServeConnection(Socket client) {
  const int fd = client.fd();
  try {
    SendLine(client, kWireGreeting);
    while (!stopping_.load()) {
      const std::optional<std::string> line = client.RecvLine();
      if (!line.has_value()) break;  // client hung up cleanly
      if (line->empty()) continue;
      if (HandleOne(client, *line)) break;  // shutdown accepted
    }
  } catch (const std::exception&) {
    // Per-connection I/O failure — the client hung up between request and
    // response, reset the connection, or vanished mid-stream. Drop this
    // connection; every other client keeps being served.
  }
  // Unregister before the Socket destructor closes the fd, so the stop
  // path can never shut down a recycled descriptor.
  std::lock_guard<std::mutex> lock(conn_mutex_);
  live_fds_.erase(std::remove(live_fds_.begin(), live_fds_.end(), fd),
                  live_fds_.end());
}

bool ScheduleServer::HandleOne(Socket& client, const std::string& line) {
  const std::string verb = VerbOf(line);
  if (verb == "watch") {
    HandleWatch(client, line);
    return false;
  }
  if (verb == "whatif") {
    WireResponse resp;
    try {
      std::vector<WhatIfRun> runs;
      {
        std::shared_lock<std::shared_mutex> lock(session_mutex_);
        const Request req = Request::Parse(line);
        runs = PrepareWhatIfRuns(*session_, req, DispatchOptions{});
      }
      // Step the private copies with no lock held: a slow probe never
      // blocks the writer or other readers.
      resp = FinishWhatIf(std::move(runs));
    } catch (const std::exception& e) {
      resp = {{Err(e.what())}, false};
    }
    SendResponse(client, resp);
    return false;
  }
  WireResponse resp;
  if (IsMutatingVerb(verb) || verb == "shutdown") {
    std::unique_lock<std::shared_mutex> lock(session_mutex_);
    resp = HandleRequestLine(*session_, line);
  } else {
    std::shared_lock<std::shared_mutex> lock(session_mutex_);
    resp = HandleRequestLine(*session_, line);
  }
  SendResponse(client, resp);
  if (resp.shutdown) RequestStop();
  return resp.shutdown;
}

void ScheduleServer::HandleWatch(Socket& client, const std::string& line) {
  std::int64_t every = 0;
  std::int64_t count = 0;
  try {
    const Request req = Request::Parse(line);
    every = req.GetInt("every", kHour, 1);
    count = req.GetInt("count", 0, 0);  // 0 means unbounded
    req.RejectUnknown();
  } catch (const std::exception& e) {
    SendLine(client, Err(e.what()));
    return;
  }
  SendLine(client,
           "ok n=" + std::to_string(count) + " every=" + std::to_string(every));

  RunningStats util_stats;
  SimTime next_tick;
  {
    std::shared_lock<std::shared_mutex> lock(session_mutex_);
    next_tick = session_->now();
  }
  std::int64_t seq = 0;
  while (!stopping_.load() && (count == 0 || seq < count)) {
    bool due = false;
    SimTime now = 0;
    std::size_t events = 0;
    SimResult metrics;
    {
      std::shared_lock<std::shared_mutex> lock(session_mutex_);
      if (session_->now() >= next_tick) {
        due = true;
        now = session_->now();
        events = session_->events_processed();
        metrics = session_->Metrics();
      }
    }
    if (due) {
      util_stats.Add(metrics.utilization);
      std::string tick = "tick seq=" + std::to_string(seq) + " " +
                         FormatMetricsBody(now, events, metrics);
      tick += " util_mean=" + FmtExactDouble(util_stats.mean());
      tick += " util_min=" + FmtExactDouble(util_stats.min());
      tick += " util_max=" + FmtExactDouble(util_stats.max());
      SendLine(client, tick);  // a hang-up throws; ServeConnection drops us
      ++seq;
      next_tick += every;
      continue;  // drain every due tick before sleeping again
    }
    if (client.PeerClosed()) return;  // watcher vanished while time stood still
    std::this_thread::sleep_for(std::chrono::milliseconds(watch_poll_ms_));
  }
  SendLine(client, "end");
}

void ScheduleServer::RequestStop() {
  if (stopping_.exchange(true)) return;
  // Wake the accept loop: a throwaway self-connection is the portable way
  // to get Accept() to return so Serve() can observe stopping_.
  try {
    Socket wake = ConnectLoopback(listener_.port());
    (void)wake;
  } catch (const std::exception&) {
    // If the listener is already gone, Serve() is past Accept() anyway.
  }
}

}  // namespace hs
