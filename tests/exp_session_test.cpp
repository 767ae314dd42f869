// SimulationSession: spec-driven construction, determinism, and byte-level
// agreement with the legacy RunSimulation entry point on the same seed.
#include "exp/session.h"

#include <gtest/gtest.h>

#include "exp/runner.h"

namespace hs {
namespace {

/// Exact comparison of every simulation-content field (the facade must not
/// perturb a single bit of the metrics relative to the legacy path).
void ExpectIdentical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(FormatResultExact(a, /*include_wallclock=*/false),
            FormatResultExact(b, /*include_wallclock=*/false));
}

TEST(SessionTest, SpecSessionMatchesLegacyRunSimulation) {
  const SimSpec spec = SimSpec::Parse("CUA&SPAA/FCFS/W5/preset=tiny/seed=5");
  // Legacy path: materialize the trace and config by hand, run through the
  // compatibility wrapper.
  const SimResult legacy = RunSimulation(spec.BuildTrace(), spec.BuildConfig());
  // Facade path.
  const SimResult facade = SimulationSession(spec).Run();
  ExpectIdentical(legacy, facade);
  EXPECT_GT(facade.jobs_completed, 0u);
}

TEST(SessionTest, DeterministicAcrossSessions) {
  const SimSpec spec = SimSpec::Parse("CUP&PAA/FCFS/W2/preset=tiny/seed=8");
  const SimResult a = SimulationSession(spec).Run();
  const SimResult b = SimulationSession(spec).Run();
  ExpectIdentical(a, b);
}

TEST(SessionTest, RunSpecConvenience) {
  const SimResult r = RunSpec("baseline/FCFS/W5/preset=tiny/seed=2");
  EXPECT_GT(r.jobs_completed, 0u);
}

TEST(SessionTest, ExposesOwnedComponents) {
  const SimSpec spec = SimSpec::Parse("N&PAA/FCFS/W5/preset=tiny/seed=4");
  SimulationSession session(spec);
  EXPECT_EQ(session.spec(), spec);
  EXPECT_GT(session.trace().jobs.size(), 0u);
  EXPECT_EQ(session.config().mechanism, ParseMechanism("N&PAA"));
  // Partial runs are observable through the owned simulator.
  session.Run(6 * kHour);
  EXPECT_EQ(session.simulator().now() <= 6 * kHour, true);
  const SimResult partial = session.Finalize();
  const SimResult full = session.Run();
  EXPECT_GE(full.jobs_completed, partial.jobs_completed);
}

TEST(SessionTest, RejectsInconsistentConfig) {
  const SimSpec spec = SimSpec::Parse("baseline/FCFS/W5/preset=tiny");
  HybridConfig config = spec.BuildConfig();
  config.reservation_timeout = -1;
  EXPECT_THROW(SimulationSession(spec.BuildTrace(), config), std::invalid_argument);
}

TEST(SessionTest, RunnerCellMatchesStandaloneSession) {
  ThreadPool pool(2);
  ExperimentRunner runner(pool);
  const SimSpec spec = SimSpec::Parse("N&SPAA/FCFS/W5/preset=tiny/seed=6");
  const auto rows = runner.Run({spec});
  ASSERT_EQ(rows.size(), 1u);
  ExpectIdentical(rows[0].result, SimulationSession(spec).Run());
}

}  // namespace
}  // namespace hs
