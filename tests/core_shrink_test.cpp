#include "core/shrink_expand.h"

#include <gtest/gtest.h>

#include <numeric>

namespace hs {
namespace {

int Total(const std::vector<ShrinkShare>& plan) {
  int total = 0;
  for (const auto& s : plan) total += s.amount;
  return total;
}

TEST(EvenShrinkTest, ExactProportionalSplit) {
  const auto plan = PlanEvenShrink({{1, 30}, {2, 10}}, 20);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].amount, 15);
  EXPECT_EQ(plan[1].amount, 5);
}

TEST(EvenShrinkTest, SumsExactlyToDemand) {
  const auto plan = PlanEvenShrink({{1, 7}, {2, 11}, {3, 3}}, 13);
  EXPECT_EQ(Total(plan), 13);
}

TEST(EvenShrinkTest, NeverExceedsCapacity) {
  const auto plan = PlanEvenShrink({{1, 2}, {2, 100}}, 100);
  for (const auto& s : plan) {
    if (s.id == 1) {
      EXPECT_LE(s.amount, 2);
    }
    if (s.id == 2) {
      EXPECT_LE(s.amount, 100);
    }
  }
  EXPECT_EQ(Total(plan), 100);
}

TEST(EvenShrinkTest, ZeroDemand) {
  const auto plan = PlanEvenShrink({{1, 5}}, 0);
  EXPECT_EQ(Total(plan), 0);
}

TEST(EvenShrinkTest, FullSupplyDemand) {
  const auto plan = PlanEvenShrink({{1, 5}, {2, 3}}, 8);
  EXPECT_EQ(Total(plan), 8);
  EXPECT_EQ(plan[0].amount, 5);
  EXPECT_EQ(plan[1].amount, 3);
}

TEST(EvenShrinkTest, DemandBeyondSupplyThrows) {
  EXPECT_THROW(PlanEvenShrink({{1, 5}}, 6), std::invalid_argument);
}

TEST(EvenShrinkTest, NegativeInputsThrow) {
  EXPECT_THROW(PlanEvenShrink({{1, -1}}, 0), std::invalid_argument);
  EXPECT_THROW(PlanEvenShrink({{1, 5}}, -2), std::invalid_argument);
}

TEST(EvenShrinkTest, Deterministic) {
  const auto a = PlanEvenShrink({{1, 7}, {2, 7}, {3, 7}}, 10);
  const auto b = PlanEvenShrink({{1, 7}, {2, 7}, {3, 7}}, 10);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].amount, b[i].amount);
}

class ShrinkPropertySweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(ShrinkPropertySweep, InvariantsHold) {
  const auto [c1, c2, c3, demand_pct] = GetParam();
  const std::vector<std::pair<JobId, int>> caps = {{1, c1}, {2, c2}, {3, c3}};
  const int supply = c1 + c2 + c3;
  const int demand = supply * demand_pct / 100;
  const auto plan = PlanEvenShrink(caps, demand);
  EXPECT_EQ(Total(plan), demand);
  ASSERT_EQ(plan.size(), caps.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_GE(plan[i].amount, 0);
    EXPECT_LE(plan[i].amount, caps[i].second);
    EXPECT_EQ(plan[i].id, caps[i].first);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ShrinkPropertySweep,
    ::testing::Combine(::testing::Values(0, 3, 17, 100),
                       ::testing::Values(1, 8, 51),
                       ::testing::Values(0, 5, 33),
                       ::testing::Values(0, 25, 50, 99, 100)));

}  // namespace
}  // namespace hs
