// ServiceSession: one live, online simulation behind the hs_server verbs.
//
// Wraps an online SimulationSession and keeps the op log — every accepted
// submit/cancel with the virtual time it was applied at. The log is the
// session's event-sourced identity: replaying it against a cold session
// (same spec, same base trace) reproduces the live state deterministically.
// That one property powers three features:
//
//   * `whatif` for a NON-live mechanism: the live event heap carries
//     mechanism-specific events (notices, planned preempts), so live state
//     cannot be reinterpreted under another mechanism — instead a cold
//     session under the candidate mechanism replays the op log to now().
//     For the live mechanism, Fork() skips the replay (same answer, tested
//     equal by service_whatif_test).
//   * `snapshot`: the file is just (spec, headroom, now, op log) in the
//     `# hs-session v1` text format — no binary state serialization, and
//     restore is replay.
//   * the differential oracle: a what-if answer must equal a cold batch run
//     of the candidate mechanism over base + online jobs + probe, truncated
//     at the probe's start (the PR's acceptance criterion).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exp/session.h"
#include "exp/sim_spec.h"

namespace hs {

/// One accepted mutation, with the virtual time it was applied at.
struct SessionOp {
  enum class Kind { kSubmit, kCancel };
  Kind kind = Kind::kSubmit;
  SimTime at = 0;
  JobRecord job;          // kSubmit: the record as appended (id assigned)
  JobId target = kNoJob;  // kCancel
};

/// One mechanism's what-if verdict for a probe job.
struct WhatIfAnswer {
  std::string mechanism;  // canonical name
  bool started = false;   // false: the probe never started (queue wedged dry)
  SimTime submit = 0;
  SimTime start = kNever;
  SimTime wait = -1;  // start - submit when started
  /// System-cost snapshot at the probe's start (scheduler-induced).
  std::size_t preemptions = 0;
  double lost_node_hours = 0.0;
  double utilization = 0.0;
};

/// Formats an answer as its wire line (`mech=... started=... ...`), doubles
/// at 17 significant digits — the byte-deterministic response format.
std::string FormatWhatIfAnswer(const WhatIfAnswer& answer);

/// One prepared what-if run: a private copy of the live state (fork or
/// op-log replay) with the probe already submitted. Preparing is cheap and
/// reads the live session; running (RunUntilStarted) touches only the copy,
/// so a concurrent server steps it off-thread without holding any lock.
struct WhatIfRun {
  std::string mechanism;                       // canonical name
  std::unique_ptr<SimulationSession> session;  // private copy, probe in
  JobId probe = kNoJob;
};

/// Runs `session` forward until `probe` first starts (or the event queue
/// drains), and reports the answer. Shared by the fork path, the replay
/// path, and the differential tests, so "truncated at the probe's start"
/// means exactly one thing everywhere.
WhatIfAnswer RunUntilStarted(SimulationSession& session, JobId probe,
                             std::string mechanism);

class ServiceSession {
 public:
  static constexpr std::size_t kDefaultHeadroom = 1024;
  /// The most submission slots a session takes, from `hs_server --headroom`
  /// or a snapshot's `headroom` line (the slots are reserved up front).
  static constexpr std::size_t kMaxHeadroom = std::size_t{1} << 20;

  /// Builds the base trace from `spec` and opens the live session with
  /// `online_headroom` submission slots.
  explicit ServiceSession(const SimSpec& spec,
                          std::size_t online_headroom = kDefaultHeadroom);

  SimTime now() const { return live_->now(); }
  const SimSpec& spec() const { return spec_; }
  const Trace& base_trace() const { return *base_trace_; }
  const std::vector<SessionOp>& ops() const { return ops_; }
  std::size_t ops_logged() const { return ops_.size(); }
  std::size_t events_processed() const { return live_->simulator().events_processed(); }
  SimulationSession& live() { return *live_; }

  /// Appends the job to the live session (strictly-future submit_time
  /// required) and logs the op. Returns the assigned id; throws on
  /// validation failure or exhausted headroom.
  JobId Submit(JobRecord job);

  /// Cancels a pending/waiting job; logs the op only when accepted.
  bool Cancel(JobId id);

  /// Advances the live session to `t` (>= now()).
  void AdvanceTo(SimTime t);

  /// Metrics over everything executed so far.
  SimResult Metrics() const { return live_->Finalize(); }

  /// query-job state machine.
  enum class JobState { kUnknown, kPending, kWaiting, kRunning, kDone, kKilled, kCanceled };
  struct JobStatus {
    JobState state = JobState::kUnknown;
    JobRecord record;          // valid unless kUnknown
    SimTime first_start = kNever;
    SimTime completion = kNever;
    int alloc = 0;             // kRunning only
  };
  JobStatus Query(JobId id) const;

  /// Answers `whatif` for each mechanism (canonical names resolved through
  /// the registry; throws on an unknown one): submits `probe` to a private
  /// copy of the live state — Fork() when the candidate is the live
  /// mechanism and `force_replay` is off, op-log replay otherwise — and
  /// runs it to the probe's start. The live session is never perturbed.
  std::vector<WhatIfAnswer> WhatIf(const JobRecord& probe,
                                   const std::vector<std::string>& mechanisms,
                                   bool force_replay = false) const;

  /// The prepare half of WhatIf(): builds the private copies and submits
  /// the probe, but does not step them. The concurrent server calls this
  /// under the session read lock, then RunUntilStarted()s each run with no
  /// lock held (the copies are private).
  std::vector<WhatIfRun> PrepareWhatIf(const JobRecord& probe,
                                       const std::vector<std::string>& mechanisms,
                                       bool force_replay = false) const;

  /// Becomes `other` (the `restore path=` verb): spec, trace, live state
  /// and op log are all taken over; `other` is left moved-from.
  void ReplaceWith(ServiceSession&& other);

  /// Serializes (spec, headroom, now, op log) as `# hs-session v1` text.
  std::string SnapshotText() const;
  void SnapshotTo(const std::string& path) const;

  /// Rebuilds a session from SnapshotText() output by replaying the ops.
  /// Throws std::invalid_argument on malformed or truncated input.
  static std::unique_ptr<ServiceSession> RestoreText(const std::string& text);
  static std::unique_ptr<ServiceSession> RestoreFrom(const std::string& path);

 private:
  /// Cold session under `mechanism` with the op log replayed to now().
  std::unique_ptr<SimulationSession> Replay(const std::string& mechanism) const;

  SimSpec spec_;
  std::size_t headroom_;
  std::shared_ptr<const Trace> base_trace_;
  std::unique_ptr<SimulationSession> live_;
  std::vector<SessionOp> ops_;
};

}  // namespace hs
