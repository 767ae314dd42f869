// Sharded-runner tests: deterministic shard planning, the shard-file and
// worker-row wire formats, merge-deterministic sinks, failure surfacing
// when workers die or drop rows, and the differential contract — the same
// grid run 1-process (twice) and K-sharded must produce byte-identical
// CSV on every simulation-content column.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <sys/stat.h>
#include <unistd.h>

#include "exp/runner.h"
#include "exp/shard_io.h"
#include "exp/shard_plan.h"
#include "exp/sharded_runner.h"
#include "exp/transport.h"
#include "util/file_util.h"
#include "util/subprocess.h"
#include "util/thread_pool.h"

namespace hs {
namespace {

// --- helpers ----------------------------------------------------------------

std::vector<SimSpec> TinyGrid() {
  std::vector<SimSpec> specs;
  for (const char* mechanism : {"baseline", "N&SPAA", "CUA&SPAA"}) {
    SimSpec base = SimSpec::Parse(std::string(mechanism) + "/FCFS/W5/preset=tiny");
    for (const SimSpec& seeded : SeedSweep(base, 2, 300)) specs.push_back(seeded);
  }
  return specs;
}

/// The byte-stable CSV of a grid: canonical spec order, wall-clock columns
/// stripped.
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

std::string ShardedCsv(const std::vector<SimSpec>& specs, ShardedRunnerOptions options) {
  std::ostringstream out;
  CsvResultSink csv(out, {.include_wallclock = false});
  MergingResultSink merged(csv, specs.size());
  ShardedRunner runner(std::move(options));
  runner.Run(specs, &merged);
  merged.Finish();
  return out.str();
}

std::string WorkerBinary() { return SelfExeDir() + "/hs_worker"; }

/// Writes an executable shell script (for worker-failure injection).
std::string WriteScript(const std::string& dir, const std::string& name,
                        const std::string& body) {
  const std::string path = dir + "/" + name;
  WriteTextFile(path, "#!/bin/sh\n" + body);
  chmod(path.c_str(), 0755);
  return path;
}

/// Inner sink recording (index, spec string) in arrival order.
class RecordingSink final : public ResultSink {
 public:
  void OnResult(std::size_t spec_index, const SpecResult& row) override {
    indices.push_back(spec_index);
    specs.push_back(row.spec.ToString());
  }
  std::vector<std::size_t> indices;
  std::vector<std::string> specs;
};

SpecResult FakeRow(const std::string& spec_text) {
  SpecResult row;
  row.spec = SimSpec::Parse(spec_text);
  row.trace_name = "trace-" + spec_text;
  return row;
}

// --- ShardPlan --------------------------------------------------------------

TEST(ShardPlanTest, EveryIndexExactlyOnce) {
  std::vector<SimSpec> specs(23);
  for (std::size_t i = 0; i < specs.size(); ++i) specs[i].weeks = 1 + (i * 7) % 13;
  const ShardPlan plan = MakeShardPlan(specs, 5);
  ASSERT_EQ(plan.spec_count, specs.size());
  std::vector<int> hits(plan.spec_count, 0);
  for (const auto& shard : plan.shards) {
    EXPECT_TRUE(std::is_sorted(shard.begin(), shard.end()));
    for (const std::size_t index : shard) ++hits[index];
  }
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(ShardPlanTest, CostWeightedBalancesMixedHorizons) {
  // 4 heavy cells (52 weeks) + 8 light ones (1 week) on 4 shards: LPT puts
  // one heavy cell per shard; an i % K split would stack heavies on shard 0.
  std::vector<SimSpec> specs(12);
  for (std::size_t i = 0; i < 4; ++i) specs[i].weeks = 52;
  for (std::size_t i = 4; i < 12; ++i) specs[i].weeks = 1;
  const ShardPlan plan = MakeShardPlan(specs, 4);
  for (const auto& shard : plan.shards) {
    double load = 0.0;
    for (const std::size_t index : shard) load += SpecCost(specs[index]);
    EXPECT_NEAR(load, 54.0, 2.0);  // 52 + two light cells
  }
}

TEST(ShardPlanTest, DeterministicAndClamped) {
  std::vector<SimSpec> specs(3);
  const ShardPlan a = MakeShardPlan(specs, 8);
  const ShardPlan b = MakeShardPlan(specs, 8);
  EXPECT_EQ(a.shards, b.shards);
  EXPECT_EQ(a.shard_count(), 3u);  // never more shards than specs
  EXPECT_THROW(MakeShardPlan(specs, 0), std::invalid_argument);
  const ShardPlan empty = MakeShardPlan({}, 4);
  EXPECT_EQ(empty.shard_count(), 0u);
  EXPECT_EQ(empty.spec_count, 0u);
}

// --- shard file format ------------------------------------------------------

TEST(ShardIoTest, ShardFileRoundTrip) {
  std::vector<SimSpec> specs = TinyGrid();
  specs[1].SetOverride("swf", "/data/theta.swf");  // '/' must survive as %2F
  std::ostringstream out;
  WriteShardFile(out, {1, 4}, specs);
  EXPECT_NE(out.str().find("# hs-shard v1"), std::string::npos);
  EXPECT_NE(out.str().find("%2F"), std::string::npos);
  std::istringstream in(out.str());
  const auto cells = ReadShardFile(in);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].index, 1u);
  EXPECT_EQ(cells[0].spec, specs[1]);
  EXPECT_EQ(cells[1].index, 4u);
  EXPECT_EQ(cells[1].spec, specs[4]);
}

TEST(ShardIoTest, ShardFileRejectsMalformedInput) {
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return ReadShardFile(in);
  };
  EXPECT_THROW(parse(""), std::runtime_error);                       // no header
  EXPECT_THROW(parse("bogus\n"), std::runtime_error);                // bad header
  EXPECT_THROW(parse("# hs-shard v2\n"), std::runtime_error);        // wrong version
  EXPECT_THROW(parse("# hs-shard v1\nnotab\n"), std::runtime_error); // no tab
  EXPECT_THROW(parse("# hs-shard v1\nx\tbaseline/FCFS/W5\n"), std::runtime_error);
  // Index must be a plain non-negative decimal: a -1 wrapped to ULLONG_MAX
  // reaches hs_worker as -1, a fault plan's "off" sentinel, and hangs it.
  for (const char* index : {"-1", "+7", " 7", "18446744073709551616"}) {
    try {
      parse(std::string("# hs-shard v1\n") + index + "\tbaseline/FCFS/W5\n");
      ADD_FAILURE() << "index '" << index << "' was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    }
  }
  EXPECT_THROW(parse("# hs-shard v1\n0\tNOPE/FCFS/W5\n"), std::runtime_error);
  EXPECT_THROW(parse("# hs-shard v1\n0\tbaseline/FCFS/W5\n0\tbaseline/SJF/W5\n"),
               std::runtime_error);                                  // duplicate index
  EXPECT_EQ(parse("# hs-shard v1\n# comment\n\n").size(), 0u);       // comments ok
}

// --- worker rows ------------------------------------------------------------

/// WriteWorkerRow's frame as FrameReader delivers it: one line, no newline.
std::string RowLine(std::size_t index, const SpecResult& row) {
  std::ostringstream out;
  WriteWorkerRow(out, index, row);
  std::string line = out.str();
  EXPECT_EQ(line.back(), '\n');
  line.pop_back();
  return line;
}

TEST(ShardIoTest, WorkerRowRoundTripIsExact) {
  SpecResult row = FakeRow("CUP&SPAA/FCFS/W5/seed=7");
  row.trace_name = "theta week 3 (50% od)";  // space and '%' are escaped
  row.result.avg_turnaround_h = 1.0 / 3.0;
  row.result.utilization = 0.1;  // not exactly representable
  row.result.od_avg_delay_s = 1e-300;
  row.result.lost_node_hours = 123456789.987654321;
  row.result.jobs_completed = 987654321;
  row.result.makespan = 31536000;
  const std::string line = RowLine(42, row);
  EXPECT_EQ(line.rfind("row index=42 spec=", 0), 0u) << line;
  EXPECT_NE(line.find(" trace=theta%20week%203%20(50%25%20od) "), std::string::npos)
      << line;
  EXPECT_NE(line.find(" makespan_s=31536000 end"), std::string::npos) << line;
  const IndexedSpecResult parsed = ParseWorkerRow(line);
  EXPECT_EQ(parsed.index, 42u);
  EXPECT_EQ(parsed.row.spec, row.spec);
  EXPECT_EQ(parsed.row.trace_name, row.trace_name);
  // Bit-exact doubles: the parse -> format round trip must be stable.
  EXPECT_EQ(parsed.row.result.avg_turnaround_h, row.result.avg_turnaround_h);
  EXPECT_EQ(parsed.row.result.utilization, row.result.utilization);
  EXPECT_EQ(parsed.row.result.od_avg_delay_s, row.result.od_avg_delay_s);
  EXPECT_EQ(parsed.row.result.lost_node_hours, row.result.lost_node_hours);
  EXPECT_EQ(parsed.row.result.jobs_completed, row.result.jobs_completed);
  EXPECT_EQ(parsed.row.result.makespan, row.result.makespan);
  EXPECT_EQ(RowLine(42, parsed.row), line);
}

TEST(ShardIoTest, WorkerRowCarriesEverySimResultMember) {
  // Every byte of the result is 0x5A (a finite double, a counter below
  // INT64_MAX); a member missing from kResultFields comes back as its
  // default and the memcmp fails.
  SpecResult row = FakeRow("baseline/FCFS/W5");
  std::memset(static_cast<void*>(&row.result), 0x5A, sizeof(row.result));
  const IndexedSpecResult parsed = ParseWorkerRow(RowLine(3, row));
  EXPECT_EQ(std::memcmp(&parsed.row.result, &row.result, sizeof(row.result)), 0);
}

TEST(ShardIoTest, EveryProperPrefixOfARowThrows) {
  // A torn write (killed mid-row) must never parse as a shorter, wrong row:
  // `makespan_s=3153` cut from `makespan_s=31536000` included.
  SpecResult row = FakeRow("CUA&SPAA/FCFS/W5/seed=9");
  row.trace_name = "a b%c";
  row.result.makespan = 31536000;
  const std::string line = RowLine(7, row);
  ASSERT_NO_THROW(ParseWorkerRow(line));
  for (std::size_t n = 0; n < line.size(); ++n) {
    EXPECT_THROW(ParseWorkerRow(line.substr(0, n)), std::invalid_argument)
        << "prefix of " << n << " bytes parsed: '" << line.substr(0, n) << "'";
  }
}

TEST(ShardIoTest, WorkerRowRejectsSchemaSkew) {
  const std::string line = RowLine(0, FakeRow("baseline/FCFS/W5"));
  EXPECT_NO_THROW(ParseWorkerRow(line));
  const auto expect_rejected = [](const std::string& bad, const std::string& named) {
    try {
      ParseWorkerRow(bad);
      ADD_FAILURE() << "accepted: " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(named), std::string::npos) << e.what();
    }
  };
  const std::size_t end = line.rfind(" end");
  // An extra (unknown) result field — e.g. from a newer worker — throws.
  expect_rejected(line.substr(0, end) + " new_metric=1 end", "new_metric=1");
  // A missing result field throws too.
  std::string missing = line;
  const std::size_t at = missing.find(" utilization=");
  missing.erase(at, missing.find(' ', at + 1) - at);
  expect_rejected(missing, "utilization");
  // So do a repeated key, a bad number and a bad spec.
  expect_rejected(line.substr(0, end) + " od_jobs=1 end", "od_jobs=1");
  std::string bad_count = line;
  bad_count.replace(bad_count.find(" od_jobs=0"), 10, " od_jobs=-1");
  expect_rejected(bad_count, "od_jobs=-1");
  std::string bad_spec = line;
  bad_spec.replace(bad_spec.find(" spec=baseline"), 14, " spec=NOPE");
  expect_rejected(bad_spec, "spec=NOPE");
  // Truncation (a worker killed mid-write) and foreign lines throw.
  expect_rejected(line.substr(0, line.size() / 2), "want 'row");
  expect_rejected("index=0 end", "want 'row");
}

// --- the fabric frame reader ------------------------------------------------

/// A FrameReader over a pipe that already holds `bytes`, write end closed.
FrameReader ReaderOverPipe(const std::string& bytes) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  EXPECT_EQ(::write(fds[1], bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ::close(fds[1]);
  return FrameReader(Socket(fds[0]));
}

std::string RowFrame(std::size_t index, const std::string& spec) {
  return RowLine(index, FakeRow(spec)) + "\n";
}

TEST(FrameReaderTest, ClassifiesTornFinalRowAndVersionSkew) {
  const std::string row = RowFrame(0, "baseline/FCFS/W5");
  const std::string next = RowFrame(1, "N&SPAA/FCFS/W5");
  const std::string torn = next.substr(0, next.size() / 2);

  // Complete rows before a torn final row survive; the tear is flagged.
  FrameReader reader = ReaderOverPipe(row + "# hs-progress cell=0\n" + torn);
  EXPECT_TRUE(reader.Drain());  // EOF
  TransportOutcome outcome;
  reader.TakeRows("test worker", outcome);
  ASSERT_EQ(outcome.rows.size(), 1u);
  EXPECT_EQ(outcome.rows[0].index, 0u);
  EXPECT_TRUE(outcome.torn_final_line);

  // The same bytes as a clean stream: no tear.
  FrameReader clean = ReaderOverPipe(row + next);
  EXPECT_TRUE(clean.Drain());
  TransportOutcome clean_outcome;
  clean.TakeRows("test worker", clean_outcome);
  EXPECT_EQ(clean_outcome.rows.size(), 2u);
  EXPECT_FALSE(clean_outcome.torn_final_line);

  // A malformed row that is not the last one is version skew: it throws,
  // naming the source.
  FrameReader skewed = ReaderOverPipe("row index=0 spec=baseline/FCFS/W5 end\n" + row);
  EXPECT_TRUE(skewed.Drain());
  TransportOutcome skewed_outcome;
  try {
    skewed.TakeRows("test worker", skewed_outcome);
    FAIL() << "a malformed mid-stream row must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("test worker"), std::string::npos) << e.what();
  }
}

TEST(FrameReaderTest, EmptyStreamAndNonRowFrames) {
  // A worker that died before writing anything: zero rows, no tear.
  FrameReader empty = ReaderOverPipe("");
  EXPECT_TRUE(empty.Drain());
  EXPECT_EQ(empty.activity(), 0u);
  TransportOutcome none;
  empty.TakeRows("test worker", none);
  EXPECT_TRUE(none.rows.empty());
  EXPECT_FALSE(none.torn_final_line);

  // Heartbeats and log lines are liveness, not rows; `done` ends the unit.
  const std::string frames =
      "# hs-progress start cells=2\nlog worker says hi\n# hs-progress cell=4\n";
  FrameReader reader = ReaderOverPipe(frames + "done exit=0\nrow ignored\n");
  EXPECT_TRUE(reader.Drain());
  EXPECT_EQ(reader.activity(), frames.size() + std::string("done exit=0\n").size());
  EXPECT_EQ(reader.terminal(), "done exit=0");
  EXPECT_EQ(reader.LogTail(), "worker says hi");
  EXPECT_TRUE(reader.read_error().empty());
  TransportOutcome outcome;
  reader.TakeRows("test worker", outcome);
  EXPECT_TRUE(outcome.rows.empty());
  EXPECT_FALSE(outcome.torn_final_line);
}

TEST(ShardedRunnerTest, TornFinalLineIsClassifiedAsCrashedWorker) {
  // A wrapper that truncates its output mid-row emulates a worker killed
  // while writing: the gather must classify that as a dropped-row crash
  // naming the shard — not as a generic parse error.
  const std::string dir = MakeTempDir("hs-shard-test-");
  const std::string wrapper = WriteScript(
      dir, "tearing_worker.sh",
      WorkerBinary() + " \"$@\" | grep -v '^# hs-progress' | head -c -20\n");
  ShardedRunnerOptions options;
  options.shards = 1;
  options.worker_cmd = wrapper;
  ShardedRunner runner(options);
  try {
    runner.Run(TinyGrid());
    FAIL() << "a torn final line must throw in fail-fast mode";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard 0"), std::string::npos) << what;
    EXPECT_NE(what.find("torn final result line"), std::string::npos) << what;
    EXPECT_NE(what.find("dropped 1 of 6"), std::string::npos) << what;
  }
  RemoveTreeBestEffort(dir);
}

// --- MergingResultSink ------------------------------------------------------

TEST(MergingSinkTest, ReordersOutOfOrderRows) {
  RecordingSink inner;
  MergingResultSink merged(inner, 3);
  merged.OnResult(2, FakeRow("CUA&SPAA/FCFS/W5"));
  EXPECT_EQ(merged.flushed(), 0u);  // 2 buffered, waiting for 0
  merged.OnResult(0, FakeRow("baseline/FCFS/W5"));
  EXPECT_EQ(merged.flushed(), 1u);  // 0 flushed, 2 still held
  merged.OnResult(1, FakeRow("N&SPAA/FCFS/W5"));
  EXPECT_EQ(merged.flushed(), 3u);
  EXPECT_EQ(inner.indices, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(inner.specs[0], "baseline/FCFS/W5");
  EXPECT_EQ(inner.specs[2], "CUA&SPAA/FCFS/W5");
  EXPECT_NO_THROW(merged.Finish());
}

TEST(MergingSinkTest, RejectsDuplicatesAndOutOfRange) {
  RecordingSink inner;
  MergingResultSink merged(inner, 2);
  merged.OnResult(0, FakeRow("baseline/FCFS/W5"));
  EXPECT_THROW(merged.OnResult(0, FakeRow("baseline/FCFS/W5")), std::runtime_error);
  EXPECT_THROW(merged.OnResult(2, FakeRow("baseline/FCFS/W5")), std::out_of_range);
}

TEST(MergingSinkTest, FinishNamesMissingRows) {
  RecordingSink inner;
  MergingResultSink merged(inner, 4);
  merged.OnResult(1, FakeRow("baseline/FCFS/W5"));
  EXPECT_EQ(merged.MissingIndices(), (std::vector<std::size_t>{0, 2, 3}));
  try {
    merged.Finish();
    FAIL() << "Finish() should throw on missing rows";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("3 of 4"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("0, 2, 3"), std::string::npos) << e.what();
  }
}

TEST(MergingSinkTest, SkipFlushesPastQuarantinedIndices) {
  RecordingSink inner;
  MergingResultSink merged(inner, 4);
  merged.OnResult(3, FakeRow("CUA&SPAA/FCFS/W5"));
  merged.OnResult(0, FakeRow("baseline/FCFS/W5"));
  EXPECT_EQ(merged.flushed(), 1u);  // 3 held behind the missing 1 and 2
  merged.Skip(1);                   // quarantined: will never arrive
  EXPECT_EQ(merged.flushed(), 2u);  // prefix advances past the gap, waits on 2
  merged.OnResult(2, FakeRow("N&SPAA/FCFS/W5"));
  EXPECT_EQ(merged.flushed(), 4u);  // 2 and the held 3 flush
  EXPECT_EQ(inner.indices, (std::vector<std::size_t>{0, 2, 3}));
  EXPECT_EQ(merged.SkippedIndices(), (std::vector<std::size_t>{1}));
  EXPECT_TRUE(merged.MissingIndices().empty());
  EXPECT_NO_THROW(merged.Finish());  // skipped is accounted, not missing
}

TEST(MergingSinkTest, SkipRejectsArrivedOrDoubleSkippedRows) {
  RecordingSink inner;
  MergingResultSink merged(inner, 3);
  merged.OnResult(0, FakeRow("baseline/FCFS/W5"));
  EXPECT_THROW(merged.Skip(0), std::runtime_error);   // row already arrived
  merged.Skip(1);
  EXPECT_THROW(merged.Skip(1), std::runtime_error);   // double skip
  EXPECT_THROW(merged.OnResult(1, FakeRow("N&SPAA/FCFS/W5")),
               std::runtime_error);                   // row after skip
  EXPECT_THROW(merged.Skip(3), std::out_of_range);
  EXPECT_EQ(merged.MissingIndices(), (std::vector<std::size_t>{2}));
  EXPECT_THROW(merged.Finish(), std::runtime_error);  // 2 is genuinely missing
}

// --- ShardedRunner ----------------------------------------------------------

TEST(ShardedRunnerTest, DifferentialSingleVsSharded) {
  const std::vector<SimSpec> specs = TinyGrid();
  const std::string once = InProcessCsv(specs);
  const std::string twice = InProcessCsv(specs);
  EXPECT_EQ(once, twice) << "in-process grid is not deterministic";

  ShardedRunnerOptions options;
  options.shards = 3;
  options.worker_cmd = WorkerBinary();
  const std::string sharded = ShardedCsv(specs, options);
  EXPECT_EQ(once, sharded)
      << "3-shard merged CSV differs from the single-process run";
  EXPECT_NE(once.find("decisions"), std::string::npos);
  EXPECT_EQ(once.find("decision_avg_us"), std::string::npos);  // wall-clock stripped
}

TEST(ShardedRunnerTest, ReturnsRowsInSpecOrderAndStreamsInOrder) {
  const std::vector<SimSpec> specs = TinyGrid();
  ShardedRunnerOptions options;
  options.shards = 3;
  options.worker_cmd = WorkerBinary();
  ShardedRunner runner(options);
  RecordingSink sink;
  const auto rows = runner.Run(specs, &sink);
  ASSERT_EQ(rows.size(), specs.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].spec, specs[i]);
    EXPECT_GT(rows[i].result.jobs_completed, 0u);
  }
  std::vector<std::size_t> expected(specs.size());
  for (std::size_t i = 0; i < expected.size(); ++i) expected[i] = i;
  EXPECT_EQ(sink.indices, expected);  // canonical order despite 3 workers
  EXPECT_EQ(runner.last_plan().shard_count(), 3u);
}

TEST(ShardedRunnerTest, ShardReturningRowsOutOfOrderStillMerges) {
  // A wrapper worker that reverses its own output stream: the merged CSV
  // must not care in which order a shard streamed its rows.
  const std::string dir = MakeTempDir("hs-shard-test-");
  const std::string wrapper = WriteScript(
      dir, "reversing_worker.sh",
      WorkerBinary() + " \"$@\" | tac\n");
  const std::vector<SimSpec> specs = TinyGrid();
  ShardedRunnerOptions options;
  options.shards = 2;
  options.worker_cmd = wrapper;
  EXPECT_EQ(InProcessCsv(specs), ShardedCsv(specs, options));
  RemoveTreeBestEffort(dir);
}

TEST(ShardedRunnerTest, DyingWorkerIsSurfacedWithShardId) {
  const std::vector<SimSpec> specs = TinyGrid();
  ShardedRunnerOptions options;
  options.shards = 2;
  options.worker_cmd = "/bin/false";
  ShardedRunner runner(options);
  try {
    runner.Run(specs);
    FAIL() << "worker exiting non-zero must throw";
  } catch (const std::runtime_error& e) {
    // Both shards die in parallel; whichever failure surfaces first names
    // its shard id — either is correct.
    EXPECT_NE(std::string(e.what()).find("shard "), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("exit 1"), std::string::npos) << e.what();
  }
}

TEST(ShardedRunnerTest, MissingWorkerBinaryIsSurfaced) {
  ShardedRunnerOptions options;
  options.shards = 1;
  options.worker_cmd = "/nonexistent/hs_worker";
  ShardedRunner runner(options);
  try {
    runner.Run(TinyGrid());
    FAIL() << "missing worker binary must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("127"), std::string::npos) << e.what();
  }
}

TEST(ShardedRunnerTest, DroppedRowsAreSurfacedWithIndices) {
  // A wrapper that deletes the last row of its output emulates a worker
  // that crashed after streaming most of its shard.
  const std::string dir = MakeTempDir("hs-shard-test-");
  const std::string wrapper = WriteScript(
      dir, "dropping_worker.sh",
      WorkerBinary() + " \"$@\" | grep -v '^# hs-progress' | sed '$d'\n");
  ShardedRunnerOptions options;
  options.shards = 1;
  options.worker_cmd = wrapper;
  ShardedRunner runner(options);
  try {
    runner.Run(TinyGrid());
    FAIL() << "dropped rows must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("dropped 1 of 6"), std::string::npos)
        << e.what();
  }
  RemoveTreeBestEffort(dir);
}

TEST(ShardedRunnerTest, RejectsInvalidSpecsUpFront) {
  SimSpec bad;
  bad.mechanism = "NOPE&PAA";
  ShardedRunnerOptions options;
  options.worker_cmd = WorkerBinary();
  ShardedRunner runner(options);
  EXPECT_THROW(runner.Run({bad}), std::invalid_argument);
  EXPECT_TRUE(runner.Run({}).empty());  // empty grid: no workers, no rows
}

}  // namespace
}  // namespace hs
