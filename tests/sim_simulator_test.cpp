#include "sim/simulator.h"

#include <gtest/gtest.h>

#include "exp/fixtures.h"

#include <vector>

namespace hs {
namespace {

/// Records every callback for inspection.
class RecordingHandler : public EventHandler {
 public:
  void HandleEvent(const Event& event, Simulator&) override { events.push_back(event); }
  void OnQuiescent(SimTime now, Simulator&) override { quiescent_times.push_back(now); }

  std::vector<Event> events;
  std::vector<SimTime> quiescent_times;
};

TEST(SimulatorTest, ProcessesEventsInOrder) {
  test::SimSandbox<RecordingHandler> sandbox;
  RecordingHandler& handler = sandbox.handler;
  Simulator& sim = sandbox.sim;
  sim.Schedule(300, EventKind::kJobSubmit, 3);
  sim.Schedule(100, EventKind::kJobSubmit, 1);
  sim.Run();
  ASSERT_EQ(handler.events.size(), 2u);
  EXPECT_EQ(handler.events[0].job, 1);
  EXPECT_EQ(handler.events[1].job, 3);
  EXPECT_EQ(sim.now(), 300);
}

TEST(SimulatorTest, QuiescentOncePerTimestampBatch) {
  test::SimSandbox<RecordingHandler> sandbox;
  RecordingHandler& handler = sandbox.handler;
  Simulator& sim = sandbox.sim;
  sim.Schedule(100, EventKind::kJobSubmit, 1);
  sim.Schedule(100, EventKind::kJobSubmit, 2);
  sim.Schedule(200, EventKind::kJobSubmit, 3);
  sim.Run();
  ASSERT_EQ(handler.quiescent_times.size(), 2u);
  EXPECT_EQ(handler.quiescent_times[0], 100);
  EXPECT_EQ(handler.quiescent_times[1], 200);
}

TEST(SimulatorTest, SchedulingInPastThrows) {
  test::SimSandbox<RecordingHandler> sandbox;
  Simulator& sim = sandbox.sim;
  sim.Schedule(100, EventKind::kJobSubmit, 1);
  sim.Run();
  EXPECT_THROW(sim.Schedule(50, EventKind::kJobSubmit, 2), std::runtime_error);
}

TEST(SimulatorTest, RunUntilStopsEarly) {
  test::SimSandbox<RecordingHandler> sandbox;
  RecordingHandler& handler = sandbox.handler;
  Simulator& sim = sandbox.sim;
  sim.Schedule(100, EventKind::kJobSubmit, 1);
  sim.Schedule(500, EventKind::kJobSubmit, 2);
  sim.Run(300);
  EXPECT_EQ(handler.events.size(), 1u);
  EXPECT_FALSE(sim.exhausted());
}

/// A handler that schedules a follow-up event at the same timestamp from
/// within HandleEvent; the follow-up must join the same batch.
class ChainingHandler : public EventHandler {
 public:
  void HandleEvent(const Event& event, Simulator& sim) override {
    order.push_back(event.job);
    if (event.job == 1) sim.Schedule(event.time, EventKind::kJobFinish, 99);
  }
  void OnQuiescent(SimTime, Simulator&) override { ++quiescent_count; }
  std::vector<JobId> order;
  int quiescent_count = 0;
};

TEST(SimulatorTest, SameTimeFollowUpJoinsBatch) {
  test::SimSandbox<ChainingHandler> sandbox;
  ChainingHandler& handler = sandbox.handler;
  Simulator& sim = sandbox.sim;
  sim.Schedule(100, EventKind::kJobSubmit, 1);
  sim.Run();
  ASSERT_EQ(handler.order.size(), 2u);
  EXPECT_EQ(handler.order[1], 99);
  EXPECT_EQ(handler.quiescent_count, 1);
}

/// Quiescent hooks may schedule more work at the same timestamp; the
/// simulator must drain it (with another quiescent pass) before advancing.
class QuiescentChainHandler : public EventHandler {
 public:
  void HandleEvent(const Event& event, Simulator&) override { handled.push_back(event.job); }
  void OnQuiescent(SimTime now, Simulator& sim) override {
    ++quiescent_count;
    if (!rescheduled) {
      rescheduled = true;
      sim.Schedule(now, EventKind::kJobFinish, 42);
    }
  }
  std::vector<JobId> handled;
  int quiescent_count = 0;
  bool rescheduled = false;
};

TEST(SimulatorTest, QuiescentFollowUpsDrainAtSameTime) {
  test::SimSandbox<QuiescentChainHandler> sandbox;
  QuiescentChainHandler& handler = sandbox.handler;
  Simulator& sim = sandbox.sim;
  sim.Schedule(100, EventKind::kJobSubmit, 1);
  sim.Run();
  ASSERT_EQ(handler.handled.size(), 2u);
  EXPECT_EQ(handler.handled[1], 42);
  EXPECT_GE(handler.quiescent_count, 2);
  EXPECT_EQ(sim.now(), 100);
}

TEST(SimulatorTest, CancelPreventsDelivery) {
  test::SimSandbox<RecordingHandler> sandbox;
  RecordingHandler& handler = sandbox.handler;
  Simulator& sim = sandbox.sim;
  const EventId id = sim.Schedule(100, EventKind::kJobSubmit, 1);
  sim.Schedule(200, EventKind::kJobSubmit, 2);
  sim.Cancel(id);
  sim.Run();
  ASSERT_EQ(handler.events.size(), 1u);
  EXPECT_EQ(handler.events[0].job, 2);
}

TEST(SimulatorTest, EventsProcessedCounter) {
  test::SimSandbox<RecordingHandler> sandbox;
  Simulator& sim = sandbox.sim;
  for (int i = 0; i < 10; ++i) sim.Schedule(i * 10, EventKind::kJobSubmit, i);
  sim.Run();
  EXPECT_EQ(sim.events_processed(), 10u);
}

}  // namespace
}  // namespace hs
