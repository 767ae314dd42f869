// EASY backfilling (Mu'alem & Feitelson, TPDS'01) with malleable-aware
// sizing, expressed as a pure function over immutable views so it can be
// property-tested in isolation.
//
// Semantics: walk the policy-ordered queue, starting jobs while they fit.
// The first job that does not fit receives a *shadow reservation*: the
// earliest time enough running jobs will have ended (by their estimates)
// for it to start, plus the count of "extra" nodes left at that moment.
// Later jobs may jump ahead only if they terminate before the shadow time
// or use no more than the extra nodes — i.e., they never delay the head job.
//
// Two entry points share one queue-walk core:
//   * EasyBackfill(BackfillInput) — the legacy snapshot form: the caller
//     materializes a RunningView vector and the shadow falls out of an
//     (est_end, id) sort over it. Kept for tests and as the differential
//     oracle for the profile-backed planner.
//   * PlanBackfill(...) — the production form: the shadow is answered by an
//     incrementally-maintained AvailabilityProfile query, so a pass sorts
//     and copies nothing. Per-job callbacks go through the small
//     BackfillEnv interface (one virtual call) instead of std::function.
#pragma once

#include <functional>
#include <vector>

#include "sched/policy.h"

namespace hs {

class AvailabilityProfile;

/// A running job as the backfill pass sees it.
struct RunningView {
  JobId id = kNoJob;
  int alloc = 0;
  SimTime est_end = 0;  // estimate-based completion bound
};

/// A start decision: give `job` exactly `alloc` nodes now.
struct StartDecision {
  JobId job = kNoJob;
  int alloc = 0;
};

/// Per-job callbacks of the planning walk, as a small interface so the hot
/// path pays one indirect call instead of std::function dispatch.
class BackfillEnv {
 public:
  virtual ~BackfillEnv() = default;
  /// Wall-time bound if `w` starts now on `alloc` nodes (estimate-based).
  virtual SimTime WallEstimate(const WaitingJob& w, int alloc) const = 0;
  /// Nodes already held for the job elsewhere (its private reservation);
  /// the walk only needs to find size - held from the free pool.
  virtual int HeldNodes(const WaitingJob& w) const = 0;
};

struct BackfillInput {
  int free_nodes = 0;                       // immediately usable by the queue
  SimTime now = 0;
  std::vector<RunningView> running;         // current executions
  std::vector<const WaitingJob*> queue;     // policy order
  /// Wall-time bound if `job` starts now on `alloc` nodes (estimate-based).
  std::function<SimTime(const WaitingJob&, int alloc)> wall_estimate;
  /// Nodes already held for the job elsewhere (its private reservation);
  /// the pass only needs to find size - held from the free pool.
  std::function<int(const WaitingJob&)> held_nodes = nullptr;
};

struct BackfillResult {
  std::vector<StartDecision> starts;
  /// Shadow reservation granted to the first blocked job (kNoJob if none).
  JobId blocked_head = kNoJob;
  SimTime shadow_time = kNever;
  int extra_nodes = 0;
  /// Queue entries the walk visited (a work count, not a decision).
  std::size_t scanned = 0;
};

BackfillResult EasyBackfill(const BackfillInput& input);

/// Profile-backed planning: byte-identical decisions to EasyBackfill over a
/// RunningView snapshot of the same state (the shadow query reproduces the
/// legacy sort order exactly, overdue-clamping included), without building
/// or sorting that snapshot.
BackfillResult PlanBackfill(int free_nodes, SimTime now,
                            const AvailabilityProfile& avail,
                            const std::vector<const WaitingJob*>& queue,
                            const BackfillEnv& env);

}  // namespace hs
