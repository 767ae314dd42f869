// Property tests for the SimulationSession copyability contract (the
// what-if enabler): fork a mid-flight session and the fork must be a
// perfect replica — advancing original and fork through the identical
// remaining event stream yields byte-identical metrics rows, identical
// event counts, and a cluster that passes CheckInvariants() on both sides;
// and advancing one side must never perturb the other.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>

#include "exp/session.h"
#include "exp/sim_spec.h"
#include "util/time.h"

namespace hs {
namespace {

constexpr SimTime kMidpoint = 3 * kDay + kHour / 2;  // mid-week, off any round mark

/// Every simulation-content field of a SimResult as one exact-format row
/// (doubles at 17 significant digits); wall-clock fields excluded, like the
/// golden fixture.
std::string ResultRow(const SimResult& r) {
  return FormatResultExact(r, /*include_wallclock=*/false);
}

SimSpec MidsizeSpec(const std::string& mechanism, std::uint64_t seed) {
  SimSpec spec = SimSpec::Parse(mechanism + "/FCFS/W5/preset=midsize");
  spec.seed = seed;
  return spec;
}

class ForkEquivalenceTest : public ::testing::TestWithParam<const char*> {};

// Fork mid-flight, run both sides to exhaustion: byte-identical rows.
TEST_P(ForkEquivalenceTest, ForkRunsIdenticallyToOriginal) {
  for (const std::uint64_t seed : {1u, 2u}) {
    SimulationSession original(MidsizeSpec(GetParam(), seed));
    original.StepTo(kMidpoint);
    const std::unique_ptr<SimulationSession> fork = original.Fork();

    EXPECT_EQ(fork->now(), original.now());
    EXPECT_EQ(fork->scheduler().engine().cluster().CheckInvariants(), "");
    EXPECT_EQ(original.scheduler().engine().cluster().CheckInvariants(), "");
    // The mid-flight states agree before any further stepping.
    EXPECT_EQ(ResultRow(fork->Finalize()), ResultRow(original.Finalize()));

    const SimResult a = original.Run();
    const SimResult b = fork->Run();
    EXPECT_EQ(ResultRow(a), ResultRow(b)) << GetParam() << " seed=" << seed;
    EXPECT_EQ(original.simulator().events_processed(),
              fork->simulator().events_processed());
    EXPECT_EQ(original.scheduler().engine().cluster().CheckInvariants(), "");
    EXPECT_EQ(fork->scheduler().engine().cluster().CheckInvariants(), "");
  }
}

INSTANTIATE_TEST_SUITE_P(Mechanisms, ForkEquivalenceTest,
                         ::testing::Values("baseline", "N&PAA", "CUA&SPAA",
                                           "CUP&SPAA"));

// Advancing the fork to completion must not move the original at all.
TEST(ForkTest, ForkIsIndependentOfOriginal) {
  SimulationSession original(MidsizeSpec("CUP&SPAA", 7));
  original.StepTo(kMidpoint);
  const std::string frozen = ResultRow(original.Finalize());
  const SimTime now_before = original.now();

  const std::unique_ptr<SimulationSession> fork = original.Fork();
  fork->Run();

  EXPECT_EQ(original.now(), now_before);
  EXPECT_EQ(ResultRow(original.Finalize()), frozen);
  EXPECT_EQ(original.scheduler().engine().cluster().CheckInvariants(), "");

  // And the original still finishes exactly like the fork did.
  EXPECT_EQ(ResultRow(original.Run()), ResultRow(fork->Finalize()));
}

// Online sessions: submissions before AND after the fork point, with the
// fork's trace storage deep-copied so post-fork submissions stay private.
TEST(ForkTest, OnlineSessionForksItsTraceStorage) {
  const SimSpec spec = MidsizeSpec("N&SPAA", 11);
  const Trace base = spec.BuildTrace();
  SimulationSession session(spec, base, /*online_headroom=*/8);
  session.StepTo(kDay);

  JobRecord early;
  early.klass = JobClass::kRigid;
  early.size = early.min_size = 64;
  early.submit_time = session.now() + 10 * kMinute;
  early.compute_time = 2 * kHour;
  early.estimate = 2 * kHour;
  const JobId early_id = session.SubmitJob(early);
  EXPECT_EQ(early_id, static_cast<JobId>(base.jobs.size()));

  session.StepTo(2 * kDay);
  const std::unique_ptr<SimulationSession> fork = session.Fork();
  EXPECT_EQ(fork->online_capacity_left(), session.online_capacity_left());

  // A post-fork submission lands in the fork only.
  JobRecord late = early;
  late.submit_time = fork->now() + kHour;
  const JobId late_id = fork->SubmitJob(late);
  EXPECT_EQ(late_id, early_id + 1);
  EXPECT_EQ(session.trace().jobs.size(), base.jobs.size() + 1);
  EXPECT_EQ(fork->trace().jobs.size(), base.jobs.size() + 2);

  // Feeding the original the identical submission keeps them in lockstep.
  const JobId same_id = session.SubmitJob(late);
  EXPECT_EQ(same_id, late_id);
  EXPECT_EQ(ResultRow(session.Run()), ResultRow(fork->Run()));
  EXPECT_EQ(session.scheduler().engine().cluster().CheckInvariants(), "");
  EXPECT_EQ(fork->scheduler().engine().cluster().CheckInvariants(), "");
}

// The guard rails around online submission.
TEST(ForkTest, SubmitValidation) {
  const SimSpec spec = MidsizeSpec("CUP&SPAA", 3);
  const Trace base = spec.BuildTrace();
  SimulationSession session(spec, base, /*online_headroom=*/1);
  session.StepTo(kDay);

  JobRecord job;
  job.klass = JobClass::kRigid;
  job.size = job.min_size = 32;
  job.compute_time = kHour;
  job.estimate = kHour;

  job.submit_time = session.now();  // not strictly future
  EXPECT_THROW(session.SubmitJob(job), std::invalid_argument);
  job.submit_time = session.now() + 1;
  job.size = base.num_nodes + 1;  // larger than the machine
  job.min_size = job.size;
  EXPECT_THROW(session.SubmitJob(job), std::invalid_argument);

  job.size = job.min_size = 32;
  EXPECT_NO_THROW(session.SubmitJob(job));
  // Headroom of 1 is now spent.
  job.submit_time = session.now() + 2;
  EXPECT_THROW(session.SubmitJob(job), std::runtime_error);

  // Plain (shared-trace) sessions refuse online submission outright.
  SimulationSession plain(spec);
  EXPECT_THROW(plain.SubmitJob(job), std::logic_error);
}

// Cancel semantics: pending and waiting jobs cancel (and their submit
// events fire as no-ops); running and completed jobs refuse.
TEST(ForkTest, CancelJobStates) {
  const SimSpec spec = MidsizeSpec("CUP&SPAA", 5);
  const Trace base = spec.BuildTrace();
  SimulationSession session(spec, base, /*online_headroom=*/4);

  // A pending online job, canceled before its submit event fires.
  JobRecord job;
  job.klass = JobClass::kRigid;
  job.size = job.min_size = 32;
  job.submit_time = kDay;
  job.compute_time = kHour;
  job.estimate = kHour;
  const JobId pending = session.SubmitJob(job);
  EXPECT_TRUE(session.CancelJob(pending));
  EXPECT_FALSE(session.CancelJob(pending));  // already canceled

  session.Run(2 * kDay);
  EXPECT_FALSE(session.scheduler().engine().IsWaiting(pending));
  EXPECT_FALSE(session.scheduler().engine().IsRunning(pending));

  // A running trace job refuses; cancels never corrupt the cluster.
  JobId running = kNoJob;
  for (const JobId id : session.scheduler().engine().RunningIds()) {
    running = id;
    break;
  }
  ASSERT_NE(running, kNoJob);
  EXPECT_FALSE(session.CancelJob(running));

  const SimResult result = session.Run();
  EXPECT_EQ(session.scheduler().engine().cluster().CheckInvariants(), "");
  // The canceled job never entered the metrics.
  EXPECT_FALSE(session.collector().Times(pending).has_value());
  EXPECT_GT(result.jobs_completed, 0u);
}

}  // namespace
}  // namespace hs
