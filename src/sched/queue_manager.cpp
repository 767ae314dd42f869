#include "sched/queue_manager.h"

#include <algorithm>
#include <stdexcept>

namespace hs {

void QueueManager::RebindRecords(const std::vector<JobRecord>& jobs) {
  for (auto& [id, job] : jobs_) {
    job.record = &jobs.at(static_cast<std::size_t>(id));
  }
}

void QueueManager::Add(WaitingJob job) {
  const JobId id = job.id;
  const auto [it, inserted] = jobs_.emplace(id, std::move(job));
  (void)it;
  if (!inserted) throw std::runtime_error("QueueManager::Add: duplicate job");
  ++epoch_;
}

WaitingJob QueueManager::Remove(JobId id) {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) throw std::runtime_error("QueueManager::Remove: absent job");
  WaitingJob out = std::move(it->second);
  jobs_.erase(it);
  ++epoch_;
  return out;
}

bool QueueManager::Contains(JobId id) const { return jobs_.count(id) > 0; }

const WaitingJob* QueueManager::Find(JobId id) const {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : &it->second;
}

WaitingJob* QueueManager::FindMutable(JobId id) {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return nullptr;
  ++epoch_;  // the caller may edit ordering inputs through this pointer
  return &it->second;
}

const std::vector<const WaitingJob*>& QueueManager::EnsureOrdered(
    const OrderingPolicy& policy, SimTime now) const {
  const bool hit = cache_valid_ && cache_epoch_ == epoch_ &&
                   cache_policy_ == policy.name() &&
                   (cache_time_invariant_ || cache_now_ == now);
  if (!hit) {
    ++sorts_;
    cache_ = All();
    std::sort(cache_.begin(), cache_.end(),
              [&policy, now](const WaitingJob* a, const WaitingJob* b) {
                if (a->boosted != b->boosted) return a->boosted;
                const double ka = policy.Key(*a, now);
                const double kb = policy.Key(*b, now);
                if (ka != kb) return ka < kb;
                if (a->first_submit != b->first_submit) return a->first_submit < b->first_submit;
                return a->id < b->id;
              });
    cache_valid_ = true;
    cache_epoch_ = epoch_;
    cache_policy_ = policy.name();
    cache_time_invariant_ = policy.time_invariant();
    cache_now_ = now;
    eligible_valid_ = false;
  }
  return cache_;
}

std::vector<const WaitingJob*> QueueManager::Ordered(const OrderingPolicy& policy,
                                                     SimTime now) const {
  return EnsureOrdered(policy, now);
}

const std::vector<const WaitingJob*>& QueueManager::OrderedEligible(
    const OrderingPolicy& policy, SimTime now) const {
  EnsureOrdered(policy, now);
  if (!eligible_valid_) {
    eligible_cache_.clear();
    for (const WaitingJob* w : cache_) {
      if (!w->partition_only) eligible_cache_.push_back(w);
    }
    eligible_valid_ = true;
  }
  return eligible_cache_;
}

std::vector<const WaitingJob*> QueueManager::All() const {
  std::vector<const WaitingJob*> view;
  view.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) view.push_back(&job);
  return view;
}

}  // namespace hs
