// FaultPlan: deterministic fault injection for the sharded experiment
// fabric. hs_worker honors the worker-level tokens and hs_agent the
// network-level ones, both from the HS_FAULT environment variable, so
// chaos is reproducible: the same plan against the same grid injects the
// same fault at the same cell, in unit tests and CI alike.
//
// Grammar — ';'-separated tokens of util/parse.h's key=value grammar, each
// `key=value` or a bare flag; a repeated or unknown token is an error:
//
//   crash-before-cell=N   die instead of emitting the row for global spec
//                         index N (exit-code / signal selects how)
//   hang-at-cell=N        wedge forever instead of emitting the row for
//                         global spec index N (no heartbeats, no rows —
//                         only the orchestrator's inactivity timeout ends it)
//   drop-every=K          silently skip writing every K-th completed row
//                         (the worker still exits 0: a torn gather)
//   exit-code=C           exit code used by crash-before-cell (default 70)
//   signal=S              die by raise(S) instead of _exit (e.g. 9)
//   torn-final-line       crash-before-cell first writes a truncated
//                         prefix of the pending row (killed mid-write)
//   attempts=M            inject only while the worker's --attempt <= M
//                         (default 1: the fault heals on the first retry;
//                         a large M makes the cell a permanent poison cell)
//
// Network tokens, honored by hs_agent (the TCP transport daemon) and
// ignored by hs_worker — each fires when the agent is about to forward
// the result row for global spec index N:
//
//   drop-conn-at-cell=N   close the orchestrator connection instead of
//                         forwarding row N (the local worker is killed)
//   kill-agent-at-cell=N  the agent raise(SIGKILL)s itself — a dead host:
//                         every later connect to it is refused
//   torn-frame-at-cell=N  send half of row N's frame with no newline,
//                         then drop the connection (a torn wire write)
//   stall-at-cell=N       stop forwarding anything but keep the
//                         connection open — only the orchestrator's
//                         inactivity monitor ends the unit
//
// Example: "crash-before-cell=5;exit-code=3;torn-final-line;attempts=1".
#pragma once

#include <string>

namespace hs {

struct FaultPlan {
  long long crash_before_cell = -1;  // global spec index; -1 = off
  long long hang_at_cell = -1;       // global spec index; -1 = off
  int drop_every = 0;                // 0 = off
  int exit_code = 70;                // crash-before-cell exit status
  int signal = 0;                    // 0 = _exit(exit_code); else raise(signal)
  bool torn_final_line = false;
  int attempts = 1;                  // inject while attempt <= attempts

  // Network faults (hs_agent only); all keyed by global spec index, -1 = off.
  long long drop_conn_at_cell = -1;
  long long kill_agent_at_cell = -1;
  long long torn_frame_at_cell = -1;
  long long stall_at_cell = -1;

  /// True when any fault is armed at all.
  bool any() const {
    return crash_before_cell >= 0 || hang_at_cell >= 0 || drop_every > 0 ||
           drop_conn_at_cell >= 0 || kill_agent_at_cell >= 0 ||
           torn_frame_at_cell >= 0 || stall_at_cell >= 0;
  }

  /// True when the plan applies to a worker on its `attempt`-th try (1-based).
  bool ActiveOn(int attempt) const { return any() && attempt <= attempts; }

  /// Canonical text form; ParseFaultPlan(ToString()) round-trips. Empty for
  /// a default (fault-free) plan.
  std::string ToString() const;
};

/// Parses the HS_FAULT grammar above; throws std::invalid_argument naming
/// the offending token. An empty string is the fault-free plan.
FaultPlan ParseFaultPlan(const std::string& text);

/// The plan in $HS_FAULT (fault-free when unset/empty). Throws like
/// ParseFaultPlan on a malformed value — a typo'd chaos schedule must fail
/// loudly, not run a clean grid that "passes".
FaultPlan FaultPlanFromEnv();

}  // namespace hs
