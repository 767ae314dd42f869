// Chaos differential tests for the fault-tolerant shard fabric: under any
// injected FaultPlan schedule that retries to completion, the merged CSV
// must be byte-identical to a clean single-process run; hung workers must
// be reaped within the configured inactivity timeout; best_effort must
// quarantine exactly the injected poison cells and never silently drop a
// healthy row; and fail-fast must name the isolated poison cell.
//
// Fault injection rides the HS_FAULT environment variable (exp/fault_plan.h),
// which hs_worker honors gated on --attempt — so every schedule here is
// deterministic and heals (or not) exactly as planned.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "exp/fault_plan.h"
#include "exp/runner.h"
#include "exp/sharded_runner.h"
#include "util/file_util.h"
#include "util/rng.h"
#include "util/subprocess.h"
#include "util/thread_pool.h"

namespace hs {
namespace {

// --- helpers ----------------------------------------------------------------

/// Sets HS_FAULT for the enclosing scope, unsetting it on exit so one
/// test's chaos can never leak into the next (or into the worker spawns of
/// an unrelated suite running from the same environment).
class FaultEnv {
 public:
  explicit FaultEnv(const std::string& plan) {
    setenv("HS_FAULT", plan.c_str(), 1);
  }
  ~FaultEnv() { unsetenv("HS_FAULT"); }
  FaultEnv(const FaultEnv&) = delete;
  FaultEnv& operator=(const FaultEnv&) = delete;
};

std::vector<SimSpec> TinyGrid() {
  std::vector<SimSpec> specs;
  for (const char* mechanism : {"baseline", "N&SPAA", "CUA&SPAA"}) {
    SimSpec base = SimSpec::Parse(std::string(mechanism) + "/FCFS/W5/preset=tiny");
    for (const SimSpec& seeded : SeedSweep(base, 2, 300)) specs.push_back(seeded);
  }
  return specs;
}

/// The byte-stable CSV of a grid: canonical spec order, wall-clock stripped.
std::string InProcessCsv(const std::vector<SimSpec>& specs) {
  std::ostringstream out;
  CsvResultSink csv(out, {.include_wallclock = false});
  MergingResultSink merged(csv, specs.size());
  ThreadPool pool(4);
  ExperimentRunner runner(pool);
  runner.Run(specs, &merged);
  merged.Finish();
  return out.str();
}

struct FabricRun {
  std::string csv;
  FabricReport report;
  std::vector<SpecResult> rows;
};

/// Runs the grid through the fabric exactly as bench_spec_grid does:
/// order-restoring merge, quarantined indices skipped so every healthy row
/// still flushes, Finish() asserting nothing was silently dropped.
FabricRun RunSharded(const std::vector<SimSpec>& specs,
                     ShardedRunnerOptions options) {
  std::ostringstream out;
  CsvResultSink csv(out, {.include_wallclock = false});
  MergingResultSink merged(csv, specs.size());
  ShardedRunner runner(std::move(options));
  FabricRun run;
  run.rows = runner.Run(specs, &merged);
  for (const FabricCellError& cell : runner.last_report().quarantined) {
    merged.Skip(cell.spec_index);
  }
  merged.Finish();
  run.csv = out.str();
  run.report = runner.last_report();
  return run;
}

ShardedRunnerOptions FabricOptions(int max_attempts) {
  ShardedRunnerOptions options;
  options.shards = 3;
  options.worker_cmd = SelfExeDir() + "/hs_worker";
  options.retry.max_attempts = max_attempts;
  options.retry.backoff_initial_s = 0.01;  // keep chaos trials fast
  options.retry.backoff_max_s = 0.05;
  return options;
}

/// `csv` minus the data row of one spec (row i is line i+1, after the header).
std::string DropCsvRow(const std::string& csv, std::size_t spec_index) {
  std::istringstream in(csv);
  std::ostringstream out;
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line)) {
    if (n++ != spec_index + 1) out << line << '\n';
  }
  return out.str();
}

// --- FaultPlan grammar ------------------------------------------------------

TEST(FaultPlanTest, ParsesFullGrammarAndRoundTrips) {
  const FaultPlan plan = ParseFaultPlan(
      "crash-before-cell=5;exit-code=3;torn-final-line;attempts=2");
  EXPECT_EQ(plan.crash_before_cell, 5);
  EXPECT_EQ(plan.exit_code, 3);
  EXPECT_TRUE(plan.torn_final_line);
  EXPECT_EQ(plan.attempts, 2);
  EXPECT_TRUE(plan.any());
  EXPECT_EQ(ParseFaultPlan(plan.ToString()).ToString(), plan.ToString());

  const FaultPlan hang = ParseFaultPlan("hang-at-cell=0");
  EXPECT_EQ(hang.hang_at_cell, 0);
  const FaultPlan drop = ParseFaultPlan("drop-every=2;signal=9");
  EXPECT_EQ(drop.drop_every, 2);
  EXPECT_EQ(drop.signal, 9);

  const FaultPlan none = ParseFaultPlan("");
  EXPECT_FALSE(none.any());
  EXPECT_EQ(none.ToString(), "");
}

TEST(FaultPlanTest, RejectsMalformedPlans) {
  EXPECT_THROW(ParseFaultPlan("explode"), std::invalid_argument);
  EXPECT_THROW(ParseFaultPlan("crash-before-cell"), std::invalid_argument);
  EXPECT_THROW(ParseFaultPlan("crash-before-cell=x"), std::invalid_argument);
  EXPECT_THROW(ParseFaultPlan("crash-before-cell=-1"), std::invalid_argument);
  EXPECT_THROW(ParseFaultPlan("drop-every=0"), std::invalid_argument);
  EXPECT_THROW(ParseFaultPlan("attempts=0"), std::invalid_argument);
  EXPECT_THROW(ParseFaultPlan("torn-final-line=1"), std::invalid_argument);
}

TEST(FaultPlanTest, NetworkTokensParseAndRoundTrip) {
  const FaultPlan plan = ParseFaultPlan(
      "drop-conn-at-cell=1;kill-agent-at-cell=2;torn-frame-at-cell=3;"
      "stall-at-cell=4;attempts=2");
  EXPECT_EQ(plan.drop_conn_at_cell, 1);
  EXPECT_EQ(plan.kill_agent_at_cell, 2);
  EXPECT_EQ(plan.torn_frame_at_cell, 3);
  EXPECT_EQ(plan.stall_at_cell, 4);
  EXPECT_TRUE(plan.any());
  EXPECT_EQ(ParseFaultPlan(plan.ToString()).ToString(), plan.ToString());

  // Each network token on its own arms the plan (any() gates injection).
  for (const char* token :
       {"drop-conn-at-cell=0", "kill-agent-at-cell=0", "torn-frame-at-cell=0",
        "stall-at-cell=0"}) {
    EXPECT_TRUE(ParseFaultPlan(token).any()) << token;
    EXPECT_TRUE(ParseFaultPlan(token).ActiveOn(1)) << token;
    EXPECT_FALSE(ParseFaultPlan(token).ActiveOn(2)) << token;
  }
  EXPECT_THROW(ParseFaultPlan("drop-conn-at-cell=-2"), std::invalid_argument);
  EXPECT_THROW(ParseFaultPlan("stall-at-cell"), std::invalid_argument);
}

TEST(FaultPlanTest, AttemptGatingHealsOnRetry) {
  const FaultPlan once = ParseFaultPlan("crash-before-cell=2");
  EXPECT_TRUE(once.ActiveOn(1));
  EXPECT_FALSE(once.ActiveOn(2));  // default attempts=1: heals on retry
  const FaultPlan poison = ParseFaultPlan("crash-before-cell=2;attempts=99");
  EXPECT_TRUE(poison.ActiveOn(1));
  EXPECT_TRUE(poison.ActiveOn(99));
  EXPECT_FALSE(poison.ActiveOn(100));
  EXPECT_FALSE(FaultPlan{}.ActiveOn(1));  // fault-free plan never fires
}

// --- targeted fabric behaviors ----------------------------------------------

TEST(ChaosTest, CrashedWorkerHealsOnRetryByteIdentical) {
  const std::vector<SimSpec> specs = TinyGrid();
  const std::string golden = InProcessCsv(specs);
  const FaultEnv fault("crash-before-cell=2;exit-code=9");
  const FabricRun run = RunSharded(specs, FabricOptions(/*max_attempts=*/3));
  EXPECT_EQ(run.csv, golden);
  EXPECT_TRUE(run.report.complete());
  EXPECT_GE(run.report.retries, 1u);
  EXPECT_GT(run.report.wasted_cells(), 0u);  // the crashed launch's lost cells
  EXPECT_EQ(run.report.rows_merged, specs.size());
}

TEST(ChaosTest, HungWorkerIsReapedWithinTimeout) {
  const std::vector<SimSpec> specs = TinyGrid();
  const std::string golden = InProcessCsv(specs);
  const FaultEnv fault("hang-at-cell=3");
  ShardedRunnerOptions options = FabricOptions(/*max_attempts=*/2);
  options.shard_timeout_s = 1.0;
  const auto started = std::chrono::steady_clock::now();
  const FabricRun run = RunSharded(specs, options);
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  // The injected hang sleeps for hours; the only way this finishes is the
  // inactivity monitor killing the wedged worker and retrying its cells.
  EXPECT_GE(run.report.hang_kills, 1u);
  EXPECT_LT(elapsed_s, 30.0) << "hung worker was not reaped promptly";
  EXPECT_EQ(run.csv, golden);
  EXPECT_TRUE(run.report.complete());
}

TEST(ChaosTest, BestEffortQuarantinesExactlyThePoisonCell) {
  const std::vector<SimSpec> specs = TinyGrid();
  const std::string golden = InProcessCsv(specs);
  // First and last cells: quarantine gaps at both edges of the merge.
  for (const std::size_t poison : {std::size_t{0}, specs.size() - 1}) {
    const FaultEnv fault("crash-before-cell=" + std::to_string(poison) +
                         ";attempts=99");
    ShardedRunnerOptions options = FabricOptions(/*max_attempts=*/2);
    options.best_effort = true;
    const FabricRun run = RunSharded(specs, options);
    ASSERT_EQ(run.report.quarantined.size(), 1u) << "poison cell " << poison;
    const FabricCellError& cell = run.report.quarantined[0];
    EXPECT_EQ(cell.spec_index, poison);
    EXPECT_EQ(cell.spec, specs[poison].ToString());
    EXPECT_FALSE(cell.reason.empty());
    EXPECT_FALSE(run.report.complete());
    // Every healthy row still reaches the sink, in order, byte-identical.
    EXPECT_EQ(run.csv, DropCsvRow(golden, poison));
    EXPECT_EQ(run.report.rows_merged, specs.size() - 1);
  }
}

TEST(ChaosTest, FailFastNamesTheIsolatedPoisonCell) {
  const std::vector<SimSpec> specs = TinyGrid();
  const std::size_t poison = 4;
  const FaultEnv fault("crash-before-cell=" + std::to_string(poison) +
                       ";attempts=99");
  ShardedRunner runner(FabricOptions(/*max_attempts=*/2));
  try {
    runner.Run(specs);
    FAIL() << "a permanent poison cell without best_effort must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("poison cell"), std::string::npos) << what;
    EXPECT_NE(what.find("spec index " + std::to_string(poison)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(specs[poison].ToString()), std::string::npos) << what;
  }
}

TEST(ChaosTest, RunsLeaveNoScratchFiles) {
  // Units travel on worker stdin and worker stderr stays in memory: a
  // clean run, a fail-fast failure and a best_effort quarantine all leave
  // an empty TMPDIR as empty as they found it.
  const std::string tmp = MakeTempDir("hs-chaos-tmpdir-");
  const std::string saved = std::getenv("TMPDIR") ? std::getenv("TMPDIR") : "";
  setenv("TMPDIR", tmp.c_str(), 1);
  const std::vector<SimSpec> specs = TinyGrid();
  RunSharded(specs, FabricOptions(/*max_attempts=*/1));
  EXPECT_TRUE(std::filesystem::is_empty(tmp)) << "after a clean run";
  {
    const FaultEnv fault("crash-before-cell=4;attempts=99");
    ShardedRunner fail_fast(FabricOptions(/*max_attempts=*/1));
    EXPECT_THROW(fail_fast.Run(specs), std::runtime_error);
    EXPECT_TRUE(std::filesystem::is_empty(tmp)) << "after a fail-fast failure";
    ShardedRunnerOptions options = FabricOptions(/*max_attempts=*/2);
    options.best_effort = true;
    EXPECT_EQ(RunSharded(specs, options).report.quarantined.size(), 1u);
    EXPECT_TRUE(std::filesystem::is_empty(tmp)) << "after a best_effort quarantine";
  }
  if (saved.empty()) {
    unsetenv("TMPDIR");
  } else {
    setenv("TMPDIR", saved.c_str(), 1);
  }
  RemoveTreeBestEffort(tmp);
}

TEST(ChaosTest, TransientDeathWithoutFaultPlanAlsoHeals) {
  // Retry/respawn must not depend on HS_FAULT plumbing: a wrapper that
  // makes exactly one launch die (atomic mkdir as the "already failed"
  // marker) exercises the plain worker-death retry path.
  const std::vector<SimSpec> specs = TinyGrid();
  const std::string golden = InProcessCsv(specs);
  const std::string dir = MakeTempDir("hs-chaos-test-");
  const std::string wrapper =
      dir + "/flaky_worker.sh";
  WriteTextFile(wrapper,
                "#!/bin/sh\n"
                "if mkdir \"" + dir + "/died-once\" 2>/dev/null; then exit 3; fi\n"
                "exec " + SelfExeDir() + "/hs_worker \"$@\"\n");
  chmod(wrapper.c_str(), 0755);
  ShardedRunnerOptions options = FabricOptions(/*max_attempts=*/2);
  options.worker_cmd = wrapper;
  const FabricRun run = RunSharded(specs, options);
  EXPECT_EQ(run.csv, golden);
  EXPECT_EQ(run.report.retries, 1u);
  EXPECT_EQ(run.report.workers_launched, run.report.shard_count + 1);
  RemoveTreeBestEffort(dir);
}

TEST(ChaosTest, FabricReportAccountsRetriesExactly) {
  // drop-every=1 on attempt 1 makes EVERY unit compute all its cells,
  // write none of them, and exit 0; attempt 2 heals. The resulting
  // accounting is thread- and timing-independent, so it can be checked
  // exactly: one retry per shard, twice the launches and scattered cells,
  // one full grid of wasted cell executions.
  const std::vector<SimSpec> specs = TinyGrid();
  const std::string golden = InProcessCsv(specs);
  const FaultEnv fault("drop-every=1;attempts=1");
  const FabricRun run = RunSharded(specs, FabricOptions(/*max_attempts=*/2));
  EXPECT_EQ(run.csv, golden);
  EXPECT_TRUE(run.report.complete());
  EXPECT_EQ(run.report.retries, run.report.shard_count);
  EXPECT_EQ(run.report.workers_launched, 2 * run.report.shard_count);
  EXPECT_EQ(run.report.bisections, 0u);
  EXPECT_EQ(run.report.hang_kills, 0u);
  EXPECT_EQ(run.report.conn_failures, 0u);
  EXPECT_EQ(run.report.cells_scattered, 2 * specs.size());
  EXPECT_EQ(run.report.rows_merged, specs.size());
  EXPECT_EQ(run.report.wasted_cells(), specs.size());
  ASSERT_EQ(run.report.launches_per_shard.size(), run.report.shard_count);
  for (std::size_t k = 0; k < run.report.shard_count; ++k) {
    EXPECT_EQ(run.report.launches_per_shard[k], 2u) << "shard " << k;
  }
  EXPECT_NE(run.report.transport.find("local-exec"), std::string::npos)
      << run.report.transport;
}

// --- the differential: seeded random schedules ------------------------------

TEST(ChaosTest, SeededFaultScheduleDifferential) {
  const std::vector<SimSpec> specs = TinyGrid();
  const std::string golden = InProcessCsv(specs);
  const int kTrials = 20;
  for (int trial = 0; trial < kTrials; ++trial) {
    Rng rng(0xC0FFEEu + static_cast<std::uint64_t>(trial));
    const long long cell =
        rng.UniformInt(0, static_cast<std::int64_t>(specs.size()) - 1);
    std::string plan;
    ShardedRunnerOptions options = FabricOptions(/*max_attempts=*/3);
    options.retry.jitter_seed = static_cast<std::uint64_t>(trial);
    switch (trial % 4) {
      case 0:  // clean crash before a cell (exit code or signal)
        plan = "crash-before-cell=" + std::to_string(cell);
        if (rng.Chance(0.5)) plan += ";signal=9";
        else plan += ";exit-code=" + std::to_string(rng.UniformInt(1, 99));
        break;
      case 1:  // silent row drops: worker exits 0 but the gather has holes
        plan = "drop-every=" + std::to_string(rng.UniformInt(1, 3));
        break;
      case 2:  // killed mid-write: torn final row
        plan = "crash-before-cell=" + std::to_string(cell) +
               ";torn-final-line;exit-code=3";
        break;
      default:  // wedged worker, ended only by the inactivity monitor
        plan = "hang-at-cell=" + std::to_string(cell);
        options.shard_timeout_s = 1.0;
        break;
    }
    SCOPED_TRACE("trial " + std::to_string(trial) + ": HS_FAULT=" + plan);
    const FaultEnv fault(plan);
    const FabricRun run = RunSharded(specs, options);
    // Every schedule above heals on retry (attempts=1): the fabric must
    // deliver the exact single-process bytes, every trial.
    EXPECT_EQ(run.csv, golden);
    EXPECT_TRUE(run.report.complete());
    EXPECT_GE(run.report.retries, 1u);
    EXPECT_EQ(run.report.rows_merged, specs.size());
  }
}

}  // namespace
}  // namespace hs
