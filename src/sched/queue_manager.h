// Waiting-queue container: insertion, removal, and policy-ordered views.
//
// Ordered() is the scheduler's per-pass hot path, so the sorted view is
// cached instead of rebuilt every call: every mutation that can change
// ordering inputs (Add, Remove, FindMutable — callers flip `boosted` /
// `partition_only` through it) bumps an epoch, and Ordered() re-sorts only
// when the epoch, the policy, or (for wait-aware policies) the clock has
// moved since the cached view was built. The comparator is a total order
// (ties end at the unique job id), so a cached view is bit-identical to a
// fresh sort.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sched/policy.h"

namespace hs {

class QueueManager {
 public:
  QueueManager() = default;

  // Copying is part of the session-fork contract: the entries and the epoch
  // transfer, the ordered-view cache does not (its pointers target the
  // source's map nodes), so the copy rebuilds it on first Ordered() call —
  // bit-identical to the source's view, the comparator being a total order.
  QueueManager(const QueueManager& other)
      : jobs_(other.jobs_), epoch_(other.epoch_), sorts_(other.sorts_) {}
  QueueManager& operator=(const QueueManager& other) {
    jobs_ = other.jobs_;
    epoch_ = other.epoch_;
    sorts_ = other.sorts_;
    cache_.clear();
    cache_valid_ = false;
    eligible_cache_.clear();
    eligible_valid_ = false;
    return *this;
  }

  /// Points every entry's `record` at the matching JobRecord in `jobs`
  /// (indexed by id). Used after a fork deep-copies the trace the records
  /// lived in; ordering inputs are unchanged, so the epoch stays put.
  void RebindRecords(const std::vector<JobRecord>& jobs);

  void Add(WaitingJob job);
  /// Removes and returns the entry; throws if absent.
  WaitingJob Remove(JobId id);
  bool Contains(JobId id) const;
  const WaitingJob* Find(JobId id) const;
  /// Mutable lookup. Conservatively invalidates the ordered-view cache:
  /// callers use it to edit fields the ordering depends on.
  WaitingJob* FindMutable(JobId id);

  std::size_t size() const { return jobs_.size(); }
  bool empty() const { return jobs_.empty(); }

  /// Bumped by every mutation that can change ordering inputs; schedulers
  /// key their own pass caches on it (paired with the cluster and
  /// availability-profile epochs).
  std::uint64_t epoch() const { return epoch_; }

  /// Times the ordered view was re-sorted (cache misses); a work count.
  std::uint64_t sorts() const { return sorts_; }

  /// Entries ordered by (boosted first, policy key, first_submit, id).
  /// Served from the epoch-keyed cache when nothing relevant changed; the
  /// returned vector is the caller's own copy, safe across queue edits.
  std::vector<const WaitingJob*> Ordered(const OrderingPolicy& policy, SimTime now) const;

  /// Ordered() minus partition_only entries — the scheduling pass's view —
  /// filtered once per cache refresh instead of per pass. Returns a
  /// reference into the cache: valid only until the next queue mutation,
  /// so callers must finish reading before starting/removing jobs.
  const std::vector<const WaitingJob*>& OrderedEligible(const OrderingPolicy& policy,
                                                        SimTime now) const;

  /// Unordered view (iteration for metrics/tests).
  std::vector<const WaitingJob*> All() const;

 private:
  /// Refreshes the ordered cache if stale; returns it.
  const std::vector<const WaitingJob*>& EnsureOrdered(const OrderingPolicy& policy,
                                                      SimTime now) const;

  std::unordered_map<JobId, WaitingJob> jobs_;

  // Ordered-view cache. Entry pointers stay valid across map churn
  // (unordered_map nodes are stable) and any churn bumps epoch_, so a
  // cache hit never dereferences a removed entry.
  std::uint64_t epoch_ = 0;
  mutable std::uint64_t sorts_ = 0;
  mutable std::vector<const WaitingJob*> cache_;
  mutable std::uint64_t cache_epoch_ = 0;
  mutable bool cache_valid_ = false;
  mutable std::string cache_policy_;
  mutable bool cache_time_invariant_ = false;
  mutable SimTime cache_now_ = 0;
  // Eligible (non-partition_only) projection of cache_; rebuilt lazily
  // after every cache_ refresh.
  mutable std::vector<const WaitingJob*> eligible_cache_;
  mutable bool eligible_valid_ = false;
};

}  // namespace hs
