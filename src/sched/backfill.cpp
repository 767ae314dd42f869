#include "sched/backfill.h"

#include <algorithm>
#include <cassert>

#include "sched/availability.h"

namespace hs {

namespace {

/// The queue walk shared by both entry points. `env` provides
/// WallEstimate/HeldNodes; `shadow_for(free, need_min)` answers the shadow
/// computation for the first blocked head ({kNever, 0} when unreachable).
template <typename Env, typename ShadowFn>
BackfillResult WalkQueue(int free_nodes, SimTime now,
                         const std::vector<const WaitingJob*>& queue,
                         const Env& env, ShadowFn&& shadow_for) {
  BackfillResult result;
  int free = free_nodes;

  for (const WaitingJob* w : queue) {
    ++result.scanned;
    const int held = env.HeldNodes(*w);
    const int need_min = std::max(0, w->min_size() - held);

    if (result.blocked_head == kNoJob) {
      if (need_min <= free) {
        const int from_free = std::min(w->size() - held, free);
        result.starts.push_back({w->id, held + from_free});
        free -= from_free;
      } else {
        result.blocked_head = w->id;
        const auto [shadow, extra] = shadow_for(free, need_min);
        if (shadow == kNever) {
          // The head job cannot be satisfied even when everything running
          // ends (its nodes are held elsewhere, e.g. by reservations).
          // Be conservative: permit no backfill past it.
          result.shadow_time = now;
          result.extra_nodes = 0;
        } else {
          result.shadow_time = shadow;
          result.extra_nodes = extra;
        }
      }
      continue;
    }

    // Backfill phase: never delay the blocked head.
    if (need_min > free || w->min_size() <= 0) continue;
    // Path (a): largest allocation from the free pool; must end by the
    // shadow time.
    const int alloc_a = std::min(w->size() - held, free);
    if (alloc_a + held >= w->min_size() &&
        now + env.WallEstimate(*w, held + alloc_a) <= result.shadow_time) {
      result.starts.push_back({w->id, held + alloc_a});
      free -= alloc_a;
      continue;
    }
    // Path (b): restrict the free-pool draw to the head job's spare nodes;
    // such a start may run past the shadow time without delaying the head.
    const int alloc_b = std::min({w->size() - held, free, result.extra_nodes});
    if (alloc_b + held >= w->min_size() && alloc_b >= 0 && (alloc_b + held) > 0) {
      result.starts.push_back({w->id, held + alloc_b});
      free -= alloc_b;
      result.extra_nodes -= alloc_b;
    }
  }
  return result;
}

/// Adapts the legacy std::function-based input to the walk's env shape.
struct FunctionEnv {
  const BackfillInput* input;
  SimTime WallEstimate(const WaitingJob& w, int alloc) const {
    return input->wall_estimate(w, alloc);
  }
  int HeldNodes(const WaitingJob& w) const {
    return input->held_nodes ? input->held_nodes(w) : 0;
  }
};

/// Earliest time (by estimates) at which `needed` nodes beyond `free_now`
/// plus the head job's requirement are available; also the spare nodes at
/// that moment. `running` must already be sorted by (est_end, id) — the
/// caller sorts once per pass instead of per call, since the sort dominated
/// this path. Returns {kNever, 0} if the requirement is unreachable.
std::pair<SimTime, int> ShadowFor(int free_now, int need_min,
                                  const std::vector<RunningView>& running) {
  int avail = free_now;
  for (const auto& r : running) {
    avail += r.alloc;
    if (avail >= need_min) return {r.est_end, avail - need_min};
  }
  return {kNever, 0};
}

}  // namespace

BackfillResult EasyBackfill(const BackfillInput& input) {
  assert(input.wall_estimate);
  // One (est_end, id) sort shared by every shadow computation in this pass,
  // built lazily so passes where nothing blocks never pay it. The total
  // order makes the result independent of input.running's order.
  std::vector<RunningView> by_end;
  const auto sorted_running = [&]() -> const std::vector<RunningView>& {
    if (by_end.empty() && !input.running.empty()) {
      by_end = input.running;
      std::sort(by_end.begin(), by_end.end(),
                [](const RunningView& a, const RunningView& b) {
                  if (a.est_end != b.est_end) return a.est_end < b.est_end;
                  return a.id < b.id;
                });
    }
    return by_end;
  };
  return WalkQueue(input.free_nodes, input.now, input.queue,
                   FunctionEnv{&input}, [&](int free, int need_min) {
                     return ShadowFor(free, need_min, sorted_running());
                   });
}

BackfillResult PlanBackfill(int free_nodes, SimTime now,
                            const AvailabilityProfile& avail,
                            const std::vector<const WaitingJob*>& queue,
                            const BackfillEnv& env) {
  return WalkQueue(free_nodes, now, queue, env, [&](int free, int need_min) {
    return avail.EarliestFit(free, need_min, now);
  });
}

}  // namespace hs
