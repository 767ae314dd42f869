// ShardPlan: a deterministic partition of a SimSpec vector into K shards
// for multi-process execution (ShardedRunner / hs_worker).
//
// The plan is longest-processing-time greedy: specs sorted by descending
// SpecCost() are placed on the least-loaded shard, which balances
// mixed-horizon grids (weeks=1 cells next to weeks=52 cells). It depends
// only on (specs, shard_count), never on timing or iteration order, so the
// same grid always scatters the same way — a prerequisite for the
// merge-determinism contract (README "Scaling out").
#pragma once

#include <cstddef>
#include <vector>

#include "exp/sim_spec.h"

namespace hs {

/// A partition of spec indices [0, spec_count) into disjoint shards. Every
/// index appears in exactly one shard; within a shard, indices ascend.
struct ShardPlan {
  std::vector<std::vector<std::size_t>> shards;
  std::size_t spec_count = 0;

  std::size_t shard_count() const { return shards.size(); }
};

/// Relative execution-cost proxy of one cell, used by the plan. The
/// trace horizon dominates both trace size and event count, so the proxy is
/// simply the spec's weeks.
double SpecCost(const SimSpec& spec);

/// Partitions `specs` into at most `shard_count` shards (empty shards are
/// never emitted: the effective count is min(shard_count, specs.size())).
/// Throws std::invalid_argument when shard_count == 0.
ShardPlan MakeShardPlan(const std::vector<SimSpec>& specs, std::size_t shard_count);

}  // namespace hs
