#include "exp/shard_plan.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace hs {

double SpecCost(const SimSpec& spec) { return static_cast<double>(spec.weeks); }

ShardPlan MakeShardPlan(const std::vector<SimSpec>& specs, std::size_t shard_count) {
  if (shard_count == 0) {
    throw std::invalid_argument("MakeShardPlan: shard_count must be >= 1");
  }
  ShardPlan plan;
  plan.spec_count = specs.size();
  const std::size_t shards = std::min(shard_count, specs.size());
  plan.shards.assign(shards, {});
  if (shards == 0) return plan;

  // LPT greedy, fully deterministic: costs tie-break by spec index, loads
  // tie-break by shard index.
  std::vector<std::size_t> order(specs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return SpecCost(specs[a]) > SpecCost(specs[b]);
  });
  std::vector<double> load(shards, 0.0);
  for (const std::size_t index : order) {
    const std::size_t target = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    plan.shards[target].push_back(index);
    load[target] += SpecCost(specs[index]);
  }
  for (auto& shard : plan.shards) std::sort(shard.begin(), shard.end());
  return plan;
}

}  // namespace hs
