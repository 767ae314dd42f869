#include "service/service_session.h"

#include <stdexcept>
#include <utility>

#include "core/mechanism.h"
#include "service/protocol.h"
#include "util/file_util.h"
#include "util/parse.h"

namespace hs {

std::string FormatWhatIfAnswer(const WhatIfAnswer& answer) {
  std::string line = "mech=" + EscapeField(answer.mechanism);
  line += " started=" + std::string(answer.started ? "1" : "0");
  line += " submit=" + std::to_string(answer.submit);
  line += " start=" + std::to_string(answer.started ? answer.start : -1);
  line += " wait=" + std::to_string(answer.started ? answer.wait : -1);
  line += " preemptions=" + std::to_string(answer.preemptions);
  line += " lost_node_h=" + FmtExactDouble(answer.lost_node_hours);
  line += " util=" + FmtExactDouble(answer.utilization);
  return line;
}

WhatIfAnswer RunUntilStarted(SimulationSession& session, JobId probe,
                             std::string mechanism) {
  WhatIfAnswer answer;
  answer.mechanism = std::move(mechanism);
  answer.submit = session.trace().jobs.at(static_cast<std::size_t>(probe)).submit_time;
  for (;;) {
    const std::optional<Collector::JobTimes> times = session.collector().Times(probe);
    if (times.has_value() && times->first_start != kNever) {
      answer.started = true;
      answer.start = times->first_start;
      answer.wait = answer.start - answer.submit;
      break;
    }
    const SimTime next = session.NextEventTime();
    if (next == kNever) break;  // drained: the probe never starts
    // One full timestamp batch per step (events + quiescent pass), so the
    // truncation point is always a batch boundary — the same state a batch
    // run reaches after processing that timestamp.
    session.StepTo(next);
  }
  const SimResult result = session.Finalize();
  answer.preemptions = result.preemptions;
  answer.lost_node_hours = result.lost_node_hours;
  answer.utilization = result.utilization;
  return answer;
}

ServiceSession::ServiceSession(const SimSpec& spec, std::size_t online_headroom)
    : spec_(spec),
      headroom_(online_headroom),
      base_trace_(std::make_shared<const Trace>(spec.BuildTrace())),
      live_(std::make_unique<SimulationSession>(spec, *base_trace_, online_headroom)) {}

JobId ServiceSession::Submit(JobRecord job) {
  const JobId id = live_->SubmitJob(job);
  SessionOp op;
  op.kind = SessionOp::Kind::kSubmit;
  op.at = live_->now();
  op.job = job;
  op.job.id = id;
  ops_.push_back(std::move(op));
  return id;
}

bool ServiceSession::Cancel(JobId id) {
  if (!live_->CancelJob(id)) return false;
  SessionOp op;
  op.kind = SessionOp::Kind::kCancel;
  op.at = live_->now();
  op.target = id;
  ops_.push_back(std::move(op));
  return true;
}

void ServiceSession::AdvanceTo(SimTime t) {
  if (t < live_->now()) {
    throw std::invalid_argument("advance into the past: t=" + std::to_string(t) +
                                " now=" + std::to_string(live_->now()));
  }
  live_->StepTo(t);
}

ServiceSession::JobStatus ServiceSession::Query(JobId id) const {
  JobStatus status;
  const Trace& trace = live_->trace();
  if (id < 0 || static_cast<std::size_t>(id) >= trace.jobs.size()) return status;
  status.record = trace.jobs[static_cast<std::size_t>(id)];
  const HybridScheduler& sched = live_->scheduler();
  const std::optional<Collector::JobTimes> times = live_->collector().Times(id);
  if (times.has_value()) {
    status.first_start = times->first_start;
    status.completion = times->completion;
  }
  if (sched.IsCanceled(id)) {
    status.state = JobState::kCanceled;
  } else if (times.has_value() && times->completion != kNever) {
    status.state = times->killed ? JobState::kKilled : JobState::kDone;
  } else if (sched.engine().IsRunning(id)) {
    status.state = JobState::kRunning;
    status.alloc = sched.engine().Running(id)->alloc;
  } else if (sched.engine().IsWaiting(id)) {
    status.state = JobState::kWaiting;
  } else {
    status.state = JobState::kPending;
  }
  return status;
}

std::vector<WhatIfAnswer> ServiceSession::WhatIf(
    const JobRecord& probe, const std::vector<std::string>& mechanisms,
    bool force_replay) const {
  std::vector<WhatIfRun> runs = PrepareWhatIf(probe, mechanisms, force_replay);
  std::vector<WhatIfAnswer> answers;
  answers.reserve(runs.size());
  for (WhatIfRun& run : runs) {
    answers.push_back(
        RunUntilStarted(*run.session, run.probe, std::move(run.mechanism)));
  }
  return answers;
}

std::vector<WhatIfRun> ServiceSession::PrepareWhatIf(
    const JobRecord& probe, const std::vector<std::string>& mechanisms,
    bool force_replay) const {
  const std::string live_mech = CanonicalMechanismName(spec_.mechanism);
  std::vector<WhatIfRun> runs;
  runs.reserve(mechanisms.size());
  for (const std::string& name : mechanisms) {
    WhatIfRun run;
    run.mechanism = CanonicalMechanismName(name);
    run.session = (!force_replay && run.mechanism == live_mech)
                      ? live_->Fork()
                      : Replay(run.mechanism);
    run.probe = run.session->SubmitJob(probe);
    runs.push_back(std::move(run));
  }
  return runs;
}

void ServiceSession::ReplaceWith(ServiceSession&& other) {
  spec_ = std::move(other.spec_);
  headroom_ = other.headroom_;
  base_trace_ = std::move(other.base_trace_);
  live_ = std::move(other.live_);
  ops_ = std::move(other.ops_);
}

std::unique_ptr<SimulationSession> ServiceSession::Replay(
    const std::string& mechanism) const {
  SimSpec spec = spec_;
  spec.mechanism = mechanism;
  auto session = std::make_unique<SimulationSession>(spec, *base_trace_, headroom_);
  for (const SessionOp& op : ops_) {
    session->StepTo(op.at);
    if (op.kind == SessionOp::Kind::kSubmit) {
      const JobId got = session->SubmitJob(op.job);
      if (got != op.job.id) {
        throw std::logic_error("op-log replay assigned id " + std::to_string(got) +
                               ", live session had " + std::to_string(op.job.id));
      }
    } else {
      session->CancelJob(op.target);
    }
  }
  session->StepTo(live_->now());
  return session;
}

std::string ServiceSession::SnapshotText() const {
  std::string out = std::string(kWireGreeting) + "\n";
  out += "spec " + EscapeField(spec_.ToString()) + "\n";
  out += "headroom " + std::to_string(headroom_) + "\n";
  out += "now " + std::to_string(live_->now()) + "\n";
  for (const SessionOp& op : ops_) {
    if (op.kind == SessionOp::Kind::kSubmit) {
      out += "op submit at=" + std::to_string(op.at) + " " +
             FormatJobFields(op.job, /*with_id=*/true) + "\n";
    } else {
      out += "op cancel at=" + std::to_string(op.at) +
             " id=" + std::to_string(op.target) + "\n";
    }
  }
  out += "end " + std::to_string(ops_.size()) + "\n";
  return out;
}

void ServiceSession::SnapshotTo(const std::string& path) const {
  WriteTextFile(path, SnapshotText());
}

std::unique_ptr<ServiceSession> ServiceSession::RestoreText(const std::string& text) {
  const std::vector<std::string> lines = SplitLines(text);
  std::size_t i = 0;
  const auto next_line = [&]() -> const std::string& {
    if (i >= lines.size()) {
      throw std::invalid_argument("truncated snapshot (no 'end' line)");
    }
    return lines[i++];
  };
  if (next_line() != kWireGreeting) {
    throw std::invalid_argument("snapshot does not open with '" +
                                std::string(kWireGreeting) + "'");
  }
  const std::string spec_line = next_line();
  if (spec_line.rfind("spec ", 0) != 0) {
    throw std::invalid_argument("snapshot missing 'spec' line");
  }
  const SimSpec spec = SimSpec::Parse(UnescapeField(spec_line.substr(5)));
  // `<name> <integer in [min, max]>` header lines; errors name the line.
  const auto header_int = [&](const std::string& name, std::int64_t min, std::int64_t max) {
    const std::string& line = next_line();
    const std::optional<std::int64_t> value =
        line.rfind(name + " ", 0) == 0 ? ParseInt(line.substr(name.size() + 1), min, max)
                                       : std::nullopt;
    if (!value) {
      throw std::invalid_argument("snapshot line '" + line + "': want '" + name +
                                  " <integer in [" + std::to_string(min) + ", " +
                                  std::to_string(max) + "]>'");
    }
    return *value;
  };
  const auto headroom = static_cast<std::size_t>(
      header_int("headroom", 1, static_cast<std::int64_t>(kMaxHeadroom)));
  const SimTime now = header_int("now", 0, kNever);

  auto session = std::make_unique<ServiceSession>(spec, headroom);
  std::size_t ops = 0;
  for (;;) {
    const std::string& line = next_line();
    if (line.rfind("end ", 0) == 0) {
      if (ParseInt(line.substr(4), 0) != static_cast<std::int64_t>(ops)) {
        throw std::invalid_argument("snapshot line '" + line + "': op count is " +
                                    std::to_string(ops) + " (truncated?)");
      }
      break;
    }
    if (line.rfind("op ", 0) != 0) {
      throw std::invalid_argument("unexpected snapshot line: " + line);
    }
    const Request op = Request::Parse(line.substr(3));
    const SimTime at = op.GetInt("at", -1, 0);
    if (at < 0) throw std::invalid_argument("op line missing at=: " + line);
    session->AdvanceTo(at);
    if (op.verb() == "submit") {
      const JobId want = ParseJobId(op);
      JobRecord job = ParseJobFields(op, at);
      op.RejectUnknown();
      if (session->Submit(std::move(job)) != want) {
        throw std::invalid_argument("snapshot replay id drift at op " +
                                    std::to_string(ops));
      }
    } else if (op.verb() == "cancel") {
      const JobId target = ParseJobId(op);
      op.RejectUnknown();
      if (!session->Cancel(target)) {
        throw std::invalid_argument("snapshot cancel refused for job " +
                                    std::to_string(target));
      }
    } else {
      throw std::invalid_argument("unknown snapshot op: " + op.verb());
    }
    ++ops;
  }
  session->AdvanceTo(now);
  return session;
}

std::unique_ptr<ServiceSession> ServiceSession::RestoreFrom(const std::string& path) {
  return RestoreText(ReadTextFile(path));
}

}  // namespace hs
