// Property tests for ShardPlan over random cost vectors: the LPT plan must
// be deterministic, cover every index exactly once with ascending in-shard
// order, never emit an empty shard, and stay within the classic 2x factor
// of the makespan lower bound max(total/K, max_cost) — the guarantee that
// makes it safe on mixed-horizon grids.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exp/shard_plan.h"
#include "util/rng.h"

namespace hs {
namespace {

/// A grid of n cells whose only cost-relevant difference is the horizon
/// (SpecCost is the spec's weeks), with weeks drawn from rng in [1, 52].
std::vector<SimSpec> RandomCostGrid(Rng& rng, std::size_t n) {
  const SimSpec base = SimSpec::Parse("baseline/FCFS/W5/preset=tiny");
  std::vector<SimSpec> specs(n, base);
  for (SimSpec& spec : specs) {
    spec.weeks = static_cast<int>(rng.UniformInt(1, 52));
  }
  return specs;
}

double ShardLoad(const ShardPlan& plan, std::size_t k,
                 const std::vector<SimSpec>& specs) {
  double load = 0.0;
  for (const std::size_t index : plan.shards[k]) load += SpecCost(specs[index]);
  return load;
}

void CheckPartitionInvariants(const ShardPlan& plan,
                              const std::vector<SimSpec>& specs,
                              std::size_t requested_shards) {
  EXPECT_EQ(plan.spec_count, specs.size());
  EXPECT_EQ(plan.shard_count(), std::min(requested_shards, specs.size()));
  std::vector<int> seen(specs.size(), 0);
  for (const std::vector<std::size_t>& shard : plan.shards) {
    EXPECT_FALSE(shard.empty()) << "empty shards must never be emitted";
    EXPECT_TRUE(std::is_sorted(shard.begin(), shard.end()))
        << "in-shard indices must ascend";
    for (const std::size_t index : shard) {
      ASSERT_LT(index, specs.size());
      seen[index] += 1;
    }
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << "spec index " << i
                          << " must appear in exactly one shard";
  }
}

TEST(ShardPlanPropertyTest, RandomGridsSatisfyPartitionInvariants) {
  for (int trial = 0; trial < 300; ++trial) {
    Rng rng(0x5A4DuLL * 1000 + static_cast<std::uint64_t>(trial));
    const std::size_t n = static_cast<std::size_t>(rng.UniformInt(1, 40));
    const std::size_t k = static_cast<std::size_t>(rng.UniformInt(1, 10));
    const std::vector<SimSpec> specs = RandomCostGrid(rng, n);
    SCOPED_TRACE("trial " + std::to_string(trial) + ", n=" + std::to_string(n) +
                 ", k=" + std::to_string(k));
    CheckPartitionInvariants(MakeShardPlan(specs, k), specs, k);
  }
}

TEST(ShardPlanPropertyTest, PlansAreDeterministic) {
  for (int trial = 0; trial < 50; ++trial) {
    Rng rng(0xDE7uLL * 1000 + static_cast<std::uint64_t>(trial));
    const std::size_t n = static_cast<std::size_t>(rng.UniformInt(1, 40));
    const std::size_t k = static_cast<std::size_t>(rng.UniformInt(1, 10));
    const std::vector<SimSpec> specs = RandomCostGrid(rng, n);
    EXPECT_EQ(MakeShardPlan(specs, k).shards, MakeShardPlan(specs, k).shards)
        << "trial " << trial << ": identical inputs must scatter identically";
  }
}

TEST(ShardPlanPropertyTest, LptMakespanWithinTwiceTheLowerBound) {
  // max(total/K, max_cost) lower-bounds any schedule's makespan; greedy
  // LPT is classically within 2x of it (in fact 4/3 - 1/(3K), but 2x is
  // the contract worth locking: a regression to naive splitting breaks it).
  for (int trial = 0; trial < 300; ++trial) {
    Rng rng(0x17B7uLL * 1000 + static_cast<std::uint64_t>(trial));
    const std::size_t n = static_cast<std::size_t>(rng.UniformInt(1, 40));
    const std::size_t k = static_cast<std::size_t>(rng.UniformInt(1, 10));
    const std::vector<SimSpec> specs = RandomCostGrid(rng, n);
    const ShardPlan plan = MakeShardPlan(specs, k);

    double total = 0.0;
    double max_cost = 0.0;
    for (const SimSpec& spec : specs) {
      total += SpecCost(spec);
      max_cost = std::max(max_cost, SpecCost(spec));
    }
    const double lower_bound =
        std::max(total / static_cast<double>(plan.shard_count()), max_cost);
    double makespan = 0.0;
    for (std::size_t s = 0; s < plan.shard_count(); ++s) {
      makespan = std::max(makespan, ShardLoad(plan, s, specs));
    }
    EXPECT_LE(makespan, 2.0 * lower_bound + 1e-9)
        << "trial " << trial << ": n=" << n << ", k=" << k
        << " makespan=" << makespan << " lower_bound=" << lower_bound;
  }
}

}  // namespace
}  // namespace hs
