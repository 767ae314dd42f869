#include "metrics/collector.h"

#include <algorithm>

#include "util/parse.h"

namespace hs {

void Collector::OnSubmit(const JobRecord& job, SimTime now) {
  auto& pj = jobs_[job.id];
  if (pj.first_submit == kNever) {
    pj.first_submit = now;
    pj.klass = job.klass;
  }
  if (first_submit_ == kNever || now < first_submit_) first_submit_ = now;
}

void Collector::OnStart(const JobRecord& job, SimTime now, int alloc, bool is_restart) {
  (void)alloc;
  (void)is_restart;
  auto& pj = jobs_[job.id];
  if (pj.first_start == kNever) pj.first_start = now;
}

void Collector::OnFinish(const JobRecord& job, SimTime now) {
  auto& pj = jobs_[job.id];
  pj.completion = now;
  useful_node_seconds_ += static_cast<double>(job.total_work());
  last_completion_ = std::max(last_completion_, now);
}

void Collector::OnKill(const JobRecord& job, SimTime now, double lost_node_seconds) {
  auto& pj = jobs_[job.id];
  pj.completion = now;
  pj.killed = true;
  lost_node_seconds_ += lost_node_seconds;
  last_completion_ = std::max(last_completion_, now);
}

void Collector::OnPreempt(const JobRecord& job, SimTime now, double lost_node_seconds,
                          PreemptKind kind) {
  (void)now;
  lost_node_seconds_ += lost_node_seconds;
  if (kind == PreemptKind::kFailure) {
    // Hardware failures are not the scheduler's doing: they count toward
    // lost work but not toward the preemption ratios of §IV-D.
    ++failures_;
    return;
  }
  jobs_[job.id].preempted = true;
  ++preemptions_;
}

void Collector::OnShrink(const JobRecord& job, SimTime now, int from_alloc, int to_alloc) {
  (void)now;
  (void)from_alloc;
  (void)to_alloc;
  jobs_[job.id].shrunk = true;
  ++shrinks_;
}

void Collector::OnExpand(const JobRecord& job, SimTime now, int from_alloc, int to_alloc) {
  (void)job;
  (void)now;
  (void)from_alloc;
  (void)to_alloc;
  ++expands_;
}

void Collector::OnSetupPaid(const JobRecord& job, double node_seconds) {
  (void)job;
  setup_node_seconds_ += node_seconds;
}

void Collector::OnCheckpointOverhead(const JobRecord& job, double node_seconds) {
  (void)job;
  checkpoint_node_seconds_ += node_seconds;
}

void Collector::OnDecision(double micros) { decision_us_.Add(micros); }

SimResult Collector::Finalize(int num_nodes, double busy_node_seconds) const {
  SimResult r;
  RunningStats turnaround_all, turnaround_rigid, turnaround_malleable, turnaround_od;
  RunningStats wait_all;
  std::size_t rigid_total = 0, rigid_preempted = 0;
  std::size_t malleable_total = 0, malleable_preempted = 0, malleable_shrunk = 0;
  std::size_t od_total = 0, od_instant = 0, od_instant_strict = 0;
  RunningStats od_delay;

  for (const auto& [id, pj] : jobs_) {
    if (pj.killed) {
      ++r.jobs_killed;
      continue;
    }
    if (pj.completion == kNever) continue;  // never finished (should not happen)
    ++r.jobs_completed;
    const double turnaround = static_cast<double>(pj.completion - pj.first_submit);
    turnaround_all.Add(turnaround);
    if (pj.first_start != kNever) {
      wait_all.Add(static_cast<double>(pj.first_start - pj.first_submit));
    }
    switch (pj.klass) {
      case JobClass::kRigid:
        ++rigid_total;
        rigid_preempted += pj.preempted ? 1 : 0;
        turnaround_rigid.Add(turnaround);
        break;
      case JobClass::kMalleable:
        ++malleable_total;
        malleable_preempted += pj.preempted ? 1 : 0;
        malleable_shrunk += pj.shrunk ? 1 : 0;
        turnaround_malleable.Add(turnaround);
        break;
      case JobClass::kOnDemand: {
        ++od_total;
        turnaround_od.Add(turnaround);
        const SimTime delay = pj.first_start - pj.first_submit;
        od_delay.Add(static_cast<double>(delay));
        od_instant += (delay <= instant_threshold_) ? 1 : 0;
        od_instant_strict += (delay == 0) ? 1 : 0;
        break;
      }
    }
  }

  r.avg_turnaround_h = turnaround_all.mean() / kHour;
  r.rigid_turnaround_h = turnaround_rigid.mean() / kHour;
  r.malleable_turnaround_h = turnaround_malleable.mean() / kHour;
  r.od_turnaround_h = turnaround_od.mean() / kHour;
  r.avg_wait_h = wait_all.mean() / kHour;

  r.od_jobs = od_total;
  if (od_total > 0) {
    r.od_instant_rate = static_cast<double>(od_instant) / od_total;
    r.od_instant_rate_strict = static_cast<double>(od_instant_strict) / od_total;
    r.od_avg_delay_s = od_delay.mean();
  }
  if (rigid_total > 0) {
    r.rigid_preempt_ratio = static_cast<double>(rigid_preempted) / rigid_total;
  }
  if (malleable_total > 0) {
    r.malleable_preempt_ratio = static_cast<double>(malleable_preempted) / malleable_total;
    r.malleable_shrink_ratio = static_cast<double>(malleable_shrunk) / malleable_total;
  }

  r.makespan = (first_submit_ == kNever) ? 0 : last_completion_ - first_submit_;
  const double capacity = static_cast<double>(num_nodes) *
                          static_cast<double>(std::max<SimTime>(1, r.makespan));
  r.utilization = (busy_node_seconds - lost_node_seconds_) / capacity;
  r.useful_utilization = useful_node_seconds_ / capacity;
  r.allocated_utilization = busy_node_seconds / capacity;
  r.lost_node_hours = lost_node_seconds_ / kHour;
  r.setup_node_hours = setup_node_seconds_ / kHour;
  r.checkpoint_node_hours = checkpoint_node_seconds_ / kHour;

  r.preemptions = preemptions_;
  r.failures = failures_;
  r.shrinks = shrinks_;
  r.expands = expands_;
  r.decision_avg_us = decision_us_.mean();
  r.decision_max_us = decision_us_.max();
  r.decisions = decision_us_.count();
  return r;
}

std::string FormatResultExact(const SimResult& r, bool include_wallclock) {
  std::string text;
  for (const ResultField& field : kResultFields) {
    if (field.wallclock && !include_wallclock) continue;
    if (!text.empty()) text += ' ';
    text += field.name;
    text += '=';
    text += FieldText(r, field, FmtExactDouble);
  }
  return text;
}

}  // namespace hs
