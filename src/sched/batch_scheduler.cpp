#include "sched/batch_scheduler.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace hs {

namespace {

std::int64_t CeilDiv(std::int64_t a, std::int64_t b) {
  assert(b > 0);
  return (a + b - 1) / b;
}

/// Nodes of `released` that ended up in the free pool (reservation-marked
/// nodes snapped back to reserved-idle inside the cluster).
std::vector<int> FreePoolOnly(const Cluster& cluster, const std::vector<int>& released) {
  std::vector<int> freed;
  freed.reserve(released.size());
  for (const int node : released) {
    if (cluster.reserved_for(node) == kNoJob) freed.push_back(node);
  }
  return freed;
}

}  // namespace

ExecutionEngine::ExecutionEngine(const Trace& trace, const EngineConfig& config,
                                 Collector& collector, Simulator& sim)
    : trace_(&trace),
      config_(config),
      collector_(&collector),
      sim_(&sim),
      cluster_(trace.num_nodes),
      policy_(MakePolicy(config.policy)),
      ckpt_(config.checkpoint),
      failure_rng_(config.failure_seed) {}

ExecutionEngine::ExecutionEngine(const ExecutionEngine& other, const Trace& trace,
                                 Collector& collector, Simulator& sim)
    : trace_(&trace),
      config_(other.config_),
      collector_(&collector),
      sim_(&sim),
      cluster_(other.cluster_),
      queue_(other.queue_),
      policy_(MakePolicy(other.config_.policy)),
      ckpt_(other.ckpt_),
      failure_rng_(other.failure_rng_),
      running_(other.running_),
      jobs_finished_(other.jobs_finished_),
      jobs_killed_(other.jobs_killed_),
      passes_run_(other.passes_run_),
      passes_skipped_(other.passes_skipped_),
      entries_scanned_(other.entries_scanned_),
      avail_(other.avail_),
      pass_cache_valid_(other.pass_cache_valid_),
      pass_cluster_epoch_(other.pass_cluster_epoch_),
      pass_queue_epoch_(other.pass_queue_epoch_),
      pass_avail_epoch_(other.pass_avail_epoch_),
      pass_next_step_(other.pass_next_step_) {
  if (&trace != other.trace_) {
    for (auto& [id, r] : running_) {
      r.rec = &trace_->jobs.at(static_cast<std::size_t>(id));
    }
    queue_.RebindRecords(trace_->jobs);
  }
}

RunningJob& ExecutionEngine::MustRun(JobId id) {
  const auto it = running_.find(id);
  if (it == running_.end()) throw std::runtime_error("job not running: " + std::to_string(id));
  return it->second;
}

const RunningJob& ExecutionEngine::MustRun(JobId id) const {
  const auto it = running_.find(id);
  if (it == running_.end()) throw std::runtime_error("job not running: " + std::to_string(id));
  return it->second;
}

const RunningJob* ExecutionEngine::Running(JobId id) const {
  const auto it = running_.find(id);
  return it == running_.end() ? nullptr : &it->second;
}

std::vector<JobId> ExecutionEngine::RunningIds() const {
  std::vector<JobId> ids;
  ids.reserve(running_.size());
  for (const auto& [id, r] : running_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

void ExecutionEngine::EnqueueFresh(JobId id, SimTime now, bool boosted) {
  const JobRecord& rec = record(id);
  WaitingJob w;
  w.id = id;
  w.record = &rec;
  w.first_submit = now;
  w.enqueue_time = now;
  w.estimate_remaining = rec.estimate;
  w.compute_remaining = rec.compute_time;
  w.work_remaining = rec.total_work();
  w.est_work_remaining =
      static_cast<std::int64_t>(rec.estimate - rec.setup_time) * rec.size;
  w.boosted = boosted;
  w.flexible = rec.is_malleable() && config_.malleable_flexible;
  collector_->OnSubmit(rec, now);
  queue_.Add(std::move(w));
}

void ExecutionEngine::EnqueueResubmission(WaitingJob waiting, SimTime now) {
  waiting.enqueue_time = now;
  queue_.Add(std::move(waiting));
}

SimTime ExecutionEngine::WallEstimate(const WaitingJob& w, int alloc) const {
  const JobRecord& rec = *w.record;
  const bool flexible = rec.is_malleable() && config_.malleable_flexible;
  if (flexible) {
    assert(alloc >= 1);
    return rec.setup_time + CeilDiv(w.est_work_remaining, alloc);
  }
  const SimTime est_compute = std::max<SimTime>(1, w.estimate_remaining - rec.setup_time);
  const SimTime interval = rec.is_rigid() ? ckpt_.IntervalFor(rec.size) : 0;
  const RigidTimeline bound(rec.setup_time, est_compute, interval,
                            ckpt_.OverheadFor(rec.size));
  return bound.total_wall();
}

bool ExecutionEngine::StartWaiting(JobId id, int alloc, SimTime now) {
  const WaitingJob* w = queue_.Find(id);
  if (w == nullptr) throw std::runtime_error("StartWaiting: job not queued");
  const int held = cluster_.ReservedIdleCount(id);
  if (alloc < w->min_size() || alloc > w->size()) return false;
  const int extra = alloc - std::min(held, alloc);
  if (extra > cluster_.free_count()) return false;
  WaitingJob waiting = queue_.Remove(id);
  const std::vector<int> nodes = cluster_.StartOnReservation(id, extra);
  assert(static_cast<int>(nodes.size()) == alloc);
  BeginExecution(std::move(waiting), nodes, now, /*tenant=*/false);
  return true;
}

void ExecutionEngine::StartTenant(JobId id, const std::vector<int>& nodes, SimTime now) {
  WaitingJob waiting = queue_.Remove(id);
  cluster_.StartOn(id, nodes);
  BeginExecution(std::move(waiting), nodes, now, /*tenant=*/true);
}

void ExecutionEngine::BeginExecution(WaitingJob waiting, const std::vector<int>& nodes,
                                     SimTime now, bool tenant) {
  const JobRecord& rec = *waiting.record;
  RunningJob r;
  r.id = waiting.id;
  r.rec = &rec;
  r.alloc = static_cast<int>(nodes.size());
  r.restarts = waiting.restarts;
  r.first_submit = waiting.first_submit;
  r.start = now;
  r.setup_end = now + rec.setup_time;
  r.is_tenant = tenant;
  r.malleable_mode = rec.is_malleable() && config_.malleable_flexible;

  if (r.malleable_mode) {
    r.work_remaining = waiting.work_remaining;
    r.est_work_remaining = waiting.est_work_remaining;
    r.work_done = 0;
    r.last_advance = now;
  } else {
    r.compute_remaining = waiting.compute_remaining;
    r.estimate_remaining = waiting.estimate_remaining;
    const SimTime interval = rec.is_rigid() ? ckpt_.IntervalFor(rec.size) : 0;
    r.timeline = RigidTimeline(rec.setup_time, r.compute_remaining, interval,
                               ckpt_.OverheadFor(rec.size));
  }

  collector_->OnStart(rec, now, r.alloc, r.restarts > 0);

  auto [it, inserted] = running_.emplace(r.id, std::move(r));
  assert(inserted);
  ScheduleCompletionEvents(it->second, now);
  SyncAvailability(it->second.id);
}

void ExecutionEngine::ScheduleCompletionEvents(RunningJob& r, SimTime now) {
  if (config_.inject_failures && r.alloc > 0) {
    // Exponential failure times are memoryless, so re-drawing at every
    // (re)schedule — including resizes, with the new allocation's rate —
    // preserves the failure process exactly.
    const double job_mtbf =
        static_cast<double>(config_.failure_node_mtbf) / r.alloc;
    const auto dt = static_cast<SimTime>(failure_rng_.Exponential(job_mtbf)) + 1;
    r.failure_event = sim_->Schedule(now + dt, EventKind::kNodeFailure, r.id);
  }
  if (r.malleable_mode) {
    const std::int64_t rem = std::max<std::int64_t>(0, r.work_remaining - r.work_done);
    const std::int64_t est_rem =
        std::max<std::int64_t>(0, r.est_work_remaining - r.work_done);
    const SimTime base = std::max(now, r.setup_end);
    const SimTime finish = base + CeilDiv(rem, r.alloc);
    const SimTime kill = base + CeilDiv(est_rem, r.alloc);
    r.finish_event = sim_->Schedule(finish, EventKind::kJobFinish, r.id);
    r.kill_time_abs = std::max(kill, finish);
    r.kill_event = sim_->Schedule(r.kill_time_abs, EventKind::kJobKill, r.id);
  } else {
    const SimTime finish = r.start + r.timeline.total_wall();
    const SimTime est_compute =
        std::max<SimTime>(r.compute_remaining, r.estimate_remaining - r.rec->setup_time);
    const RigidTimeline bound(r.rec->setup_time, est_compute, r.timeline.interval(),
                              r.timeline.overhead());
    r.finish_event = sim_->Schedule(finish, EventKind::kJobFinish, r.id);
    r.kill_time_abs = std::max(finish, r.start + bound.total_wall());
    r.kill_event = sim_->Schedule(r.kill_time_abs, EventKind::kJobKill, r.id);
  }
}

void ExecutionEngine::CancelCompletionEvents(RunningJob& r) {
  sim_->Cancel(r.finish_event);
  sim_->Cancel(r.kill_event);
  sim_->Cancel(r.failure_event);
  r.finish_event = kNoEvent;
  r.kill_event = kNoEvent;
  r.failure_event = kNoEvent;
}

bool ExecutionEngine::IsCurrentFailureEvent(JobId id, EventId event) const {
  const auto it = running_.find(id);
  return it != running_.end() && it->second.failure_event == event &&
         event != kNoEvent;
}

void ExecutionEngine::AdvanceProgress(RunningJob& r, SimTime now) {
  if (!r.malleable_mode) return;
  const SimTime from = std::max(r.last_advance, r.setup_end);
  if (now > from) {
    r.work_done += static_cast<std::int64_t>(now - from) * r.alloc;
  }
  r.last_advance = std::max(r.last_advance, now);
}

std::int64_t ExecutionEngine::ProjectedWork(const RunningJob& r, SimTime now) {
  if (!r.malleable_mode) return 0;
  const SimTime from = std::max(r.last_advance, r.setup_end);
  std::int64_t done = r.work_done;
  if (now > from) done += static_cast<std::int64_t>(now - from) * r.alloc;
  return done;
}

void ExecutionEngine::AccountExecutionOverheads(const RunningJob& r, SimTime now) {
  const SimTime elapsed = now - r.start;
  const SimTime setup_used = std::min<SimTime>(elapsed, r.rec->setup_time);
  if (setup_used > 0) {
    collector_->OnSetupPaid(*r.rec, static_cast<double>(setup_used) * r.alloc);
  }
  if (!r.malleable_mode && r.timeline.interval() > 0) {
    const SimTime bounded = std::min(elapsed, r.timeline.total_wall());
    const SimTime progress = r.timeline.ProgressAt(bounded);
    const SimTime dump_wall = bounded - setup_used - progress;
    if (dump_wall > 0) {
      collector_->OnCheckpointOverhead(*r.rec,
                                       static_cast<double>(dump_wall) * r.alloc);
    }
  }
}

std::vector<int> ExecutionEngine::FinishRunning(JobId id, SimTime now) {
  RunningJob& r = MustRun(id);
  CancelCompletionEvents(r);
  if (r.draining) {
    sim_->Cancel(r.drain_event);
  }
  AccountExecutionOverheads(r, now);
  collector_->OnFinish(*r.rec, now);
  running_.erase(id);
  avail_.Erase(id);
  ++jobs_finished_;
  const std::vector<int> released = cluster_.Finish(id);
  return FreePoolOnly(cluster_, released);
}

std::vector<int> ExecutionEngine::KillAtEstimate(JobId id, SimTime now) {
  RunningJob& r = MustRun(id);
  CancelCompletionEvents(r);
  if (r.draining) sim_->Cancel(r.drain_event);
  double lost = 0.0;
  if (r.malleable_mode) {
    AdvanceProgress(r, now);
    lost = static_cast<double>(r.work_done);
  } else {
    lost = static_cast<double>(r.timeline.ProgressAt(now - r.start)) * r.alloc;
  }
  AccountExecutionOverheads(r, now);
  collector_->OnKill(*r.rec, now, lost);
  running_.erase(id);
  avail_.Erase(id);
  ++jobs_killed_;
  const std::vector<int> released = cluster_.Finish(id);
  return FreePoolOnly(cluster_, released);
}

WaitingJob ExecutionEngine::MakeResubmission(const RunningJob& r, SimTime now,
                                             SimTime saved_progress,
                                             std::int64_t malleable_done) const {
  WaitingJob w;
  w.id = r.id;
  w.record = r.rec;
  w.first_submit = r.first_submit;  // §III-B2: keep the original submit time
  w.enqueue_time = now;
  w.restarts = r.restarts + 1;
  w.flexible = r.malleable_mode;
  if (r.malleable_mode) {
    w.work_remaining = std::max<std::int64_t>(0, r.work_remaining - malleable_done);
    w.est_work_remaining =
        std::max<std::int64_t>(w.work_remaining, r.est_work_remaining - malleable_done);
    w.compute_remaining = static_cast<SimTime>(CeilDiv(w.work_remaining, r.rec->size));
    w.estimate_remaining =
        r.rec->setup_time + static_cast<SimTime>(CeilDiv(w.est_work_remaining, r.rec->size));
  } else {
    w.compute_remaining = std::max<SimTime>(0, r.compute_remaining - saved_progress);
    w.estimate_remaining =
        std::max<SimTime>(r.rec->setup_time + w.compute_remaining,
                          r.estimate_remaining - saved_progress);
    w.work_remaining = static_cast<std::int64_t>(w.compute_remaining) * r.rec->size;
    w.est_work_remaining =
        static_cast<std::int64_t>(w.estimate_remaining - r.rec->setup_time) * r.rec->size;
  }
  return w;
}

std::vector<int> ExecutionEngine::PreemptNow(JobId id, SimTime now, PreemptKind kind) {
  RunningJob& r = MustRun(id);
  CancelCompletionEvents(r);
  if (r.draining) sim_->Cancel(r.drain_event);

  WaitingJob resub;
  double lost = 0.0;
  if (r.malleable_mode) {
    // Loosely-coupled tasks: finished tasks persist, so progress survives
    // even an immediate preemption; only the setup must be re-paid.
    AdvanceProgress(r, now);
    resub = MakeResubmission(r, now, 0, r.work_done);
  } else {
    const SimTime elapsed = now - r.start;
    const SimTime progress = r.timeline.ProgressAt(elapsed);
    const SimTime saved = r.timeline.CheckpointedAt(elapsed);
    lost = static_cast<double>(progress - saved) * r.alloc;
    resub = MakeResubmission(r, now, saved, 0);
  }
  AccountExecutionOverheads(r, now);
  collector_->OnPreempt(*r.rec, now, lost, kind);
  running_.erase(id);
  avail_.Erase(id);
  const std::vector<int> released = cluster_.Finish(id);
  EnqueueResubmission(std::move(resub), now);
  return FreePoolOnly(cluster_, released);
}

void ExecutionEngine::BeginDrain(JobId id, JobId od, SimTime now) {
  RunningJob& r = MustRun(id);
  if (r.draining) throw std::runtime_error("BeginDrain: already draining");
  if (!r.malleable_mode) throw std::runtime_error("BeginDrain: not malleable");
  r.draining = true;
  r.drain_for = od;
  r.drain_deadline = now + config_.drain_warning;
  r.drain_event = sim_->Schedule(r.drain_deadline, EventKind::kWarningExpire, id, od);
  SyncAvailability(id);  // the profile bound becomes the drain deadline
}

std::vector<int> ExecutionEngine::CompleteDrain(JobId id, SimTime now) {
  RunningJob& r = MustRun(id);
  assert(r.draining);
  CancelCompletionEvents(r);
  AdvanceProgress(r, now);
  WaitingJob resub = MakeResubmission(r, now, 0, r.work_done);
  AccountExecutionOverheads(r, now);
  collector_->OnPreempt(*r.rec, now, 0.0, PreemptKind::kDrained);
  running_.erase(id);
  avail_.Erase(id);
  const std::vector<int> released = cluster_.Finish(id);
  EnqueueResubmission(std::move(resub), now);
  return FreePoolOnly(cluster_, released);
}

void ExecutionEngine::CancelDrain(JobId id) {
  RunningJob& r = MustRun(id);
  if (!r.draining) return;
  sim_->Cancel(r.drain_event);
  r.draining = false;
  r.drain_for = kNoJob;
  r.drain_event = kNoEvent;
  r.drain_deadline = kNever;
  SyncAvailability(id);  // back to the execution's own completion bound
}

std::vector<int> ExecutionEngine::ShrinkBy(JobId id, int nodes, SimTime now) {
  RunningJob& r = MustRun(id);
  if (!r.malleable_mode) throw std::runtime_error("ShrinkBy: not malleable");
  if (nodes <= 0 || r.alloc - nodes < r.rec->min_size) {
    throw std::runtime_error("ShrinkBy: would violate minimum size");
  }
  AdvanceProgress(r, now);
  const int from = r.alloc;
  const std::vector<int> released = cluster_.ReleaseSome(id, nodes);
  r.alloc -= nodes;
  collector_->OnShrink(*r.rec, now, from, r.alloc);
  CancelCompletionEvents(r);
  ScheduleCompletionEvents(r, now);
  SyncAvailability(id);
  return FreePoolOnly(cluster_, released);
}

void ExecutionEngine::ExpandByFromFree(JobId id, int nodes, SimTime now) {
  RunningJob& r = MustRun(id);
  if (!r.malleable_mode) throw std::runtime_error("ExpandByFromFree: not malleable");
  if (nodes <= 0) return;
  if (r.alloc + nodes > r.rec->size) throw std::runtime_error("ExpandByFromFree: above max");
  AdvanceProgress(r, now);
  const int from = r.alloc;
  cluster_.ExpandFromFree(id, nodes);
  r.alloc += nodes;
  collector_->OnExpand(*r.rec, now, from, r.alloc);
  CancelCompletionEvents(r);
  ScheduleCompletionEvents(r, now);
  SyncAvailability(id);
}

SimTime ExecutionEngine::EstimatedEnd(JobId id, SimTime now) const {
  return EstimatedEndOf(MustRun(id), now);
}

SimTime ExecutionEngine::EstimatedEndOf(const RunningJob& r, SimTime now) const {
  return std::max(now, ProfileEndOf(r));
}

SimTime ExecutionEngine::ProfileEndOf(const RunningJob& r) {
  if (r.draining) return r.drain_deadline;
  if (r.malleable_mode) {
    // Drift-free form of the instantaneous estimate: work_done advances by
    // exactly alloc node-seconds per second past max(last_advance,
    // setup_end), so the projected end E = t0 + ceil((est_work_remaining -
    // work_done) / alloc) is constant until the next mutation, and the
    // instantaneous estimate equals max(E, now) (integer arithmetic makes
    // the reduction exact; see availability.h).
    const std::int64_t est_rem =
        std::max<std::int64_t>(0, r.est_work_remaining - r.work_done);
    return std::max(r.last_advance, r.setup_end) + CeilDiv(est_rem, r.alloc);
  }
  return r.kill_time_abs;
}

void ExecutionEngine::SyncAvailability(JobId id) {
  const auto it = running_.find(id);
  if (it == running_.end()) {
    avail_.Erase(id);
    return;
  }
  avail_.Set(id, ProfileEndOf(it->second), it->second.alloc);
}

double ExecutionEngine::PreemptionCostNodeSec(JobId id, SimTime now) const {
  const RunningJob& r = MustRun(id);
  const double setup_cost =
      static_cast<double>(r.rec->setup_time) * r.alloc;
  if (r.malleable_mode) return setup_cost;  // progress survives; setup re-paid
  const SimTime elapsed = now - r.start;
  const SimTime progress = r.timeline.ProgressAt(elapsed);
  const SimTime saved = r.timeline.CheckpointedAt(elapsed);
  return static_cast<double>(progress - saved) * r.alloc + setup_cost;
}

SimTime ExecutionEngine::NextCheckpointCompletion(JobId id, SimTime now) const {
  const RunningJob& r = MustRun(id);
  if (r.malleable_mode || r.timeline.interval() <= 0) return kNever;
  const SimTime offset = r.timeline.NextCheckpointCompletion(now - r.start);
  return offset == kNever ? kNever : r.start + offset;
}

int ExecutionEngine::ShrinkableNodes(JobId id) const {
  const auto it = running_.find(id);
  if (it == running_.end()) return 0;
  const RunningJob& r = it->second;
  if (!r.malleable_mode || r.draining || r.is_tenant) return 0;
  return std::max(0, r.alloc - r.rec->min_size);
}

bool ExecutionEngine::IsPreemptable(JobId id) const {
  const auto it = running_.find(id);
  if (it == running_.end()) return false;
  const RunningJob& r = it->second;
  return !r.rec->is_on_demand() && !r.draining && !r.is_tenant;
}

namespace {

/// The engine's BackfillEnv: held nodes come from the job's own reserved-
/// idle count, wall estimates from the engine's estimate model.
class EnginePassEnv final : public BackfillEnv {
 public:
  explicit EnginePassEnv(const ExecutionEngine& engine) : engine_(&engine) {}
  SimTime WallEstimate(const WaitingJob& w, int alloc) const override {
    return engine_->WallEstimate(w, alloc);
  }
  int HeldNodes(const WaitingJob& w) const override {
    return engine_->cluster().ReservedIdleCount(w.id);
  }

 private:
  const ExecutionEngine* engine_;
};

}  // namespace

int ExecutionEngine::RunSchedulingPass(SimTime now) {
  // Incremental schedule repair: a pass whose plan was empty recorded what
  // it consulted; if none of it changed, re-planning is provably another
  // empty plan, so skip. The time-invariance gate is required — a policy
  // whose order drifts with the clock (WFP3) can promote a startable job
  // to the head even with frozen state. The clock gate (`now` short of the
  // next profile step) freezes the overdue-clamped prefix of the shadow
  // query; past it, a blocked head's shadow/extra answer could change.
  // Starting no jobs has no side effects, so skipping is state-identical.
  if (pass_cache_valid_ && policy_->time_invariant() &&
      pass_cluster_epoch_ == cluster_.epoch() &&
      pass_queue_epoch_ == queue_.epoch() &&
      pass_avail_epoch_ == avail_.epoch() && now < pass_next_step_) {
    ++passes_skipped_;
    return 0;
  }
  ++passes_run_;
  // The eligible view is a reference into the queue's cache: planning reads
  // it to completion before any start mutates the queue.
  const std::vector<const WaitingJob*>& queue = queue_.OrderedEligible(*policy_, now);
  const EnginePassEnv env(*this);
  const BackfillResult result =
      PlanBackfill(cluster_.free_count(), now, avail_, queue, env);
  entries_scanned_ += result.scanned;
  int started = 0;
  for (const StartDecision& d : result.starts) {
    if (StartWaiting(d.job, d.alloc, now)) ++started;
  }
  pass_cache_valid_ = result.starts.empty();
  if (pass_cache_valid_) {
    pass_cluster_epoch_ = cluster_.epoch();
    pass_queue_epoch_ = queue_.epoch();
    pass_avail_epoch_ = avail_.epoch();
    pass_next_step_ = avail_.NextEndAfter(now);
  }
  return started;
}

}  // namespace hs
