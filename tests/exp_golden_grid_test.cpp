// Golden-trace regression tests over committed fixtures in tests/golden/:
//
//   * spec_grid_seed.csv locks the simulation content of the original seven
//     mechanisms (baseline + the paper's six) at W1S1 (weeks=1, seed=1) and
//     W2S2 (weeks=2, seeds 2 and 3), wall-clock columns stripped. Any change
//     to scheduler decisions, trace synthesis or metric accounting fails
//     here with a per-line diff.
//   * work_counts.csv locks how much work each of those cells does, plus
//     one aimix storm cell and one WFP3 cell: events dispatched, scheduling
//     passes run and skipped by the epoch gate, queue entries the planning
//     walk visited, ordered-view re-sorts, and the cluster, queue and
//     availability-profile epochs (mutation counts). The counts are
//     deterministic and machine-independent, so a hot-path change shows up
//     as counts that move, with no runner noise in the way.
//
// Intentional changes refresh both fixtures with one command:
//
//   HS_UPDATE_GOLDEN=1 ./build/exp_golden_grid_test
//
// then commit the updated CSVs alongside the change that moved them.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "exp/runner.h"
#include "exp/session.h"
#include "util/csv.h"
#include "util/file_util.h"
#include "util/thread_pool.h"

#ifndef HS_SOURCE_DIR
#error "exp_golden_grid_test requires HS_SOURCE_DIR (see CMakeLists.txt)"
#endif

namespace hs {
namespace {

constexpr const char* kOriginalMechanisms[] = {
    "baseline", "N&PAA", "N&SPAA", "CUA&PAA", "CUA&SPAA", "CUP&PAA", "CUP&SPAA",
};

std::string GoldenPath() {
  return std::string(HS_SOURCE_DIR) + "/tests/golden/spec_grid_seed.csv";
}

std::string WorkCountsPath() {
  return std::string(HS_SOURCE_DIR) + "/tests/golden/work_counts.csv";
}

/// The fixture's grid: mechanism-major; per mechanism one W1S1 cell and a
/// two-seed W2S2 sweep, FCFS/W5 at paper scale (the Table 2 defaults).
std::vector<SimSpec> GoldenSpecs() {
  std::vector<SimSpec> specs;
  for (const char* mechanism : kOriginalMechanisms) {
    SimSpec base = SimSpec::Parse(std::string(mechanism) + "/FCFS/W5");
    base.weeks = 1;
    base.seed = 1;
    specs.push_back(base);
    base.weeks = 2;
    for (const SimSpec& seeded : SeedSweep(base, 2, 2)) specs.push_back(seeded);
  }
  return specs;
}

std::string GenerateGoldenCsv() {
  const std::vector<SimSpec> specs = GoldenSpecs();
  std::ostringstream out;
  CsvResultSink csv(out, {.include_wallclock = false});
  MergingResultSink merged(csv, specs.size());
  ThreadPool pool;
  ExperimentRunner runner(pool);
  runner.Run(specs, &merged);
  merged.Finish();
  return out.str();
}

/// The count fixture's cells: the golden grid, one same-tick AI-swarm storm
/// cell (most of its time is in the scheduling pass), and one WFP3 cell —
/// the only policy whose order drifts with the clock, so the epoch gate
/// never skips its passes.
std::vector<SimSpec> WorkCountSpecs() {
  std::vector<SimSpec> specs = GoldenSpecs();
  for (const char* text : {"CUP&SPAA/FCFS/W5/preset=aimix/ai_frac=0.6/load=0.5",
                           "CUP&SPAA/WFP3/W5"}) {
    SimSpec spec = SimSpec::Parse(text);
    spec.weeks = 1;
    spec.seed = 1;
    specs.push_back(spec);
  }
  return specs;
}

/// One row of work counts per cell, each cell run to exhaustion.
std::string GenerateWorkCountsCsv() {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.WriteRow({"spec", "events", "passes_run", "passes_skipped", "entries_scanned",
                "queue_sorts", "cluster_epoch", "queue_epoch", "profile_epoch"});
  for (const SimSpec& spec : WorkCountSpecs()) {
    SimulationSession session(spec);
    session.Run();
    const ExecutionEngine& engine = session.scheduler().engine();
    csv.WriteRow({spec.ToString(),
                  std::to_string(session.simulator().events_processed()),
                  std::to_string(engine.passes_run()),
                  std::to_string(engine.passes_skipped()),
                  std::to_string(engine.entries_scanned()),
                  std::to_string(engine.queue().sorts()),
                  std::to_string(engine.cluster().epoch()),
                  std::to_string(engine.queue().epoch()),
                  std::to_string(engine.availability().epoch())});
  }
  return out.str();
}

/// Fails unless `generated` is byte-identical to the committed fixture at
/// `path` (rewriting it first under HS_UPDATE_GOLDEN=1); reports every
/// differing line.
void ExpectMatchesFixture(const std::string& generated, const std::string& path) {
  if (std::getenv("HS_UPDATE_GOLDEN") != nullptr) {
    WriteTextFile(path, generated);
    std::printf("refreshed %s (%zu bytes)\n", path.c_str(), generated.size());
  }

  std::string fixture;
  try {
    fixture = ReadTextFile(path);
  } catch (const std::exception& e) {
    FAIL() << e.what()
           << "\n(missing fixture? regenerate with HS_UPDATE_GOLDEN=1 " __FILE__ ")";
  }

  if (generated == fixture) return;  // byte-identical, done

  const auto got = SplitLines(generated);
  const auto want = SplitLines(fixture);
  EXPECT_EQ(got.size(), want.size()) << "line count of " << path;
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    if (got[i] == want[i]) continue;
    ADD_FAILURE() << path << ":" << (i + 1) << " differs\n  header: " << want[0]
                  << "\n  want:   " << want[i] << "\n  got:    " << got[i];
  }
  ADD_FAILURE() << path << " differs from the generated text. If intentional, refresh with:\n"
                   "  HS_UPDATE_GOLDEN=1 ./exp_golden_grid_test\n"
                   "and commit it with the reason.";
}

TEST(GoldenGridTest, MatchesCommittedFixture) {
  ExpectMatchesFixture(GenerateGoldenCsv(), GoldenPath());
}

TEST(GoldenGridTest, WorkCountsMatchCommittedFixture) {
  ExpectMatchesFixture(GenerateWorkCountsCsv(), WorkCountsPath());
}

TEST(GoldenGridTest, FixtureShapeIsLocked) {
  const std::string golden = ReadTextFile(GoldenPath());
  const auto lines = SplitLines(golden);
  // Header + 7 mechanisms x (1 + 2) rows.
  ASSERT_EQ(lines.size(), 22u);
  EXPECT_EQ(lines[0].rfind("spec,trace,mechanism,", 0), 0u) << lines[0];
  // Wall-clock columns must never leak into the fixture.
  EXPECT_EQ(lines[0].find("decision_avg_us"), std::string::npos);
  EXPECT_EQ(lines[0].find("decision_max_us"), std::string::npos);
  EXPECT_NE(lines[0].find("decisions"), std::string::npos);
  for (const char* mechanism : kOriginalMechanisms) {
    EXPECT_NE(golden.find(mechanism), std::string::npos) << mechanism;
  }
}

}  // namespace
}  // namespace hs
