// Metamorphic relations across runs: pairs of specs that must produce the
// same results because of how the mechanisms are defined, checked on
// W5/FCFS at one week for seeds 1-3. Rows are compared as CSV text with the
// wall-clock columns and the eight identity columns (spec, trace,
// mechanism, policy, mix, preset, weeks, seed) stripped.
//
//   R1. With od_share=0 (no on-demand jobs) the seven hybrid mechanisms
//       give identical rows: every mechanism differs only in how it treats
//       on-demand arrivals and notices.
//   R2. With od_share=0/rigid_share=1 (no malleable jobs either) baseline
//       equals every hybrid mechanism. With od_share=0 alone it differs on
//       purpose: baseline runs malleable jobs rigid.
//   R3. With od_share=0 the on-demand knobs backfill, hold, timeout and
//       instant change nothing. `partition` is left out: a static partition
//       reserves its nodes at startup whatever od_share is, so it changes
//       results even with no on-demand jobs.
//
// A relation that breaks is a behaviour change to explain, not a relation
// to edit.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "util/file_util.h"
#include "util/thread_pool.h"

namespace hs {
namespace {

constexpr const char* kHybridMechanisms[] = {
    "N&PAA", "N&SPAA", "CUA&PAA", "CUA&SPAA", "CUP&PAA", "CUP&SPAA", "CUP-DEFER",
};
constexpr int kSeeds = 3;
constexpr int kIdentityColumns = 8;

/// Runs each of `cells` (a `mechanism/FCFS/W5/...` spec text) at one week
/// for seeds 1..kSeeds, and returns the stripped rows cell-major: row
/// `c * kSeeds + (seed - 1)` belongs to `cells[c]` at `seed`.
std::vector<std::string> StrippedRows(const std::vector<std::string>& cells) {
  std::vector<SimSpec> specs;
  for (const std::string& cell : cells) {
    SimSpec base = SimSpec::Parse(cell);
    base.weeks = 1;
    for (const SimSpec& seeded : SeedSweep(base, kSeeds, 1)) specs.push_back(seeded);
  }
  std::ostringstream out;
  CsvResultSink csv(out, {.include_wallclock = false});
  MergingResultSink merged(csv, specs.size());
  ThreadPool pool;
  ExperimentRunner runner(pool);
  runner.Run(specs, &merged);
  merged.Finish();

  std::vector<std::string> lines = SplitLines(out.str());
  EXPECT_EQ(lines.size(), specs.size() + 1);  // header + one row per cell
  lines.erase(lines.begin());
  for (std::string& line : lines) {
    std::size_t cut = 0;
    for (int i = 0; i < kIdentityColumns; ++i) cut = line.find(',', cut) + 1;
    line.erase(0, cut);
  }
  return lines;
}

/// Expects every cell's rows to equal the first cell's, seed by seed.
void ExpectAllEqual(const std::vector<std::string>& cells) {
  const std::vector<std::string> rows = StrippedRows(cells);
  ASSERT_EQ(rows.size(), cells.size() * kSeeds);
  for (std::size_t c = 1; c < cells.size(); ++c) {
    for (int s = 0; s < kSeeds; ++s) {
      EXPECT_EQ(rows[c * kSeeds + s], rows[s])
          << cells[c] << " vs " << cells[0] << " at seed " << (s + 1);
    }
  }
}

TEST(MetamorphicTest, R1HybridMechanismsAgreeWithoutOnDemandJobs) {
  std::vector<std::string> cells;
  for (const char* mechanism : kHybridMechanisms) {
    cells.push_back(std::string(mechanism) + "/FCFS/W5/od_share=0");
  }
  ExpectAllEqual(cells);
}

TEST(MetamorphicTest, R2BaselineEqualsEveryMechanismWithRigidJobsOnly) {
  std::vector<std::string> cells = {"baseline/FCFS/W5/od_share=0/rigid_share=1"};
  for (const char* mechanism : kHybridMechanisms) {
    cells.push_back(std::string(mechanism) + "/FCFS/W5/od_share=0/rigid_share=1");
  }
  ExpectAllEqual(cells);
}

TEST(MetamorphicTest, R3OnDemandKnobsAreInertWithoutOnDemandJobs) {
  for (const char* mechanism : kHybridMechanisms) {
    const std::string base = std::string(mechanism) + "/FCFS/W5/od_share=0";
    ExpectAllEqual({base, base + "/backfill=false", base + "/hold=false",
                    base + "/timeout=900", base + "/instant=10"});
  }
}

}  // namespace
}  // namespace hs
