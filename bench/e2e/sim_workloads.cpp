// paper_grid and aimix_storm: closed-loop cells on two threads (the
// ExperimentRunner pool shape), each cell on its own seeded scenario trace.
// A trace per cell is what keeps a run's medians steady across seeds: one
// Theta-like trace can cost twice another (its project mix is drawn per
// seed) and one aimix trace ten times another (swarm collisions), so a run
// timing two traces would time the seed.
#include <atomic>
#include <cstdio>
#include <exception>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/mechanism.h"
#include "exp/runner.h"
#include "exp/session.h"
#include "sched/policy.h"
#include "traced_cell.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace e2e {

namespace {

constexpr int kThreads = 2;
/// The seed every digest in digests.txt was recorded with.
constexpr std::uint64_t kDigestSeed = 1;
/// Observation 10: a scheduling decision takes well under 10 ms.
constexpr double kDecisionGateUs = 10000.0;
/// Set-up synthesizes this many cells' traces, as ExperimentRunner does
/// before its first cell; repeated, median reported.
constexpr std::size_t kSetupTraces = 32;

/// A closed loop on `threads` threads: each calls fn(index, thread) for the
/// next index, 0 up, until `deadline` has passed (checked before taking an
/// index) or `count` indices are taken. Every taken index runs to the end,
/// so indices [0, result) all ran. The first exception is rethrown once
/// every thread has joined.
template <typename Fn>
std::size_t ClosedLoop(int threads, Clock::time_point deadline, std::size_t count, Fn fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        while (Clock::now() < deadline) {
          const std::size_t index = next.fetch_add(1);
          if (index >= count) break;
          fn(index, t);
        }
      } catch (...) {
        errors[static_cast<std::size_t>(t)] = std::current_exception();
        next.store(count);
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return std::min(next.load(), count);
}

struct SimGrid {
  std::vector<hs::SimSpec> configs;  // cell i runs configs[i % size]
  std::size_t digest_cells = 0;      // cells the default-seed digest covers
};

SimGrid MakeGrid(const Options& options) {
  SimGrid grid;
  if (options.workload == "paper_grid") {
    // The paper's mechanism x policy sweep on Theta-scale traces.
    for (const std::string& mechanism : hs::MechanismNames()) {
      for (const std::string& policy : hs::PolicyNames()) {
        hs::SimSpec spec;
        spec.mechanism = mechanism;
        spec.policy = policy;
        spec.preset = "paper";
        spec.weeks = options.smoke ? 1 : 4;
        grid.configs.push_back(spec);
      }
    }
  } else if (options.workload == "aimix_storm") {
    // load=0.5 keeps the swarms' same-tick bursts (the pass still takes
    // about three quarters of a cell) without the overloaded traces whose
    // cost runs ten times the median. Two-week cells, twice as many per
    // run, were no steadier: interleaved with four-week runs, their median's
    // spread across ten seeds was 3.2% against 2.3%.
    for (const char* mechanism : {"baseline", "N&SPAA", "CUP&SPAA"}) {
      hs::SimSpec spec = hs::SimSpec::Parse(std::string(mechanism) +
                                            "/FCFS/W5/preset=aimix/ai_frac=0.6/load=0.5");
      spec.weeks = options.smoke ? 1 : 4;
      grid.configs.push_back(spec);
    }
  } else {
    throw std::invalid_argument("not a sim workload: " + options.workload);
  }
  grid.digest_cells = options.smoke ? 4 : 32;
  return grid;
}

hs::SimSpec CellSpec(const SimGrid& grid, std::uint64_t seed, std::size_t index) {
  hs::SimSpec spec = grid.configs[index % grid.configs.size()];
  spec.seed = ScenarioSeed(seed, index);
  return spec;
}

std::shared_ptr<const hs::Trace> BuildTrace(const hs::SimSpec& spec) {
  return std::make_shared<const hs::Trace>(spec.BuildTrace());
}

struct Cell {
  double ms = 0.0;  // session build + run + sink
  double decision_max_us = 0.0;
  std::uint64_t digest = 0;  // RowDigest of the row
};

/// A closed loop of production cells. Rows are kept as digests, except the
/// first digest_cells rows, whose text the default-seed digest covers: a
/// run's memory must not grow with the cells it has run.
struct CellRun {
  std::vector<Cell> cells;
  std::vector<std::string> head_rows;
  std::size_t failed = 0;
  std::string first_error;
};

/// Collects per-index results from the loop threads.
template <typename T>
class Slots {
 public:
  void Put(std::size_t index, T value) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (values_.size() <= index) values_.resize(index + 1);
    values_[index] = std::move(value);
  }
  std::vector<T> Take(std::size_t count) {
    values_.resize(count);
    return std::move(values_);
  }

 private:
  std::mutex mutex_;
  std::vector<T> values_;
};

/// The run's CSV sink, serialized across the loop threads as
/// ExperimentRunner serializes its sink.
class CsvRunSink final : public hs::ResultSink {
 public:
  void OnResult(std::size_t index, const hs::SpecResult& row) override {
    std::lock_guard<std::mutex> lock(mutex_);
    csv_.OnResult(index, row);
  }

 private:
  std::mutex mutex_;
  DiscardStream out_;
  hs::CsvResultSink csv_{out_};
};

/// The production cell path -- SimulationSession over a shared trace, the
/// row streamed to the run's CSV sink, as each ExperimentRunner pool thread
/// runs a cell -- in a closed loop until `deadline`. Traces are synthesized
/// outside the timed span (they are set-up work).
CellRun RunProductionCells(const SimGrid& grid, std::uint64_t seed, Clock::time_point deadline) {
  CsvRunSink sink;
  Slots<Cell> cells;
  Slots<std::string> head_rows;
  CellRun run;
  std::mutex failures;
  const std::size_t ran = ClosedLoop(kThreads, deadline, SIZE_MAX, [&](std::size_t i, int) {
    const hs::SimSpec spec = CellSpec(grid, seed, i);
    Cell cell;
    try {
      const std::shared_ptr<const hs::Trace> trace = BuildTrace(spec);
      const Clock::time_point t0 = Clock::now();
      hs::SimulationSession session(spec, trace);
      const hs::SpecResult row{spec, session.trace().name, session.Run()};
      sink.OnResult(i, row);
      cell.ms = Since(t0) * 1e3;
      std::string text = StrippedCsv(row);
      cell.digest = Fnv1a(text);
      cell.decision_max_us = row.result.decision_max_us;
      if (i < grid.digest_cells) head_rows.Put(i, std::move(text));
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(failures);
      if (run.failed++ == 0) run.first_error = spec.ToString() + ": " + e.what();
    }
    cells.Put(i, cell);
  });
  run.cells = cells.Take(ran);
  run.head_rows = head_rows.Take(std::min(ran, grid.digest_cells));
  return run;
}

std::string RowsDigest(const std::vector<std::string>& rows) {
  std::uint64_t hash = Fnv1a("");
  for (const std::string& row : rows) hash = Fnv1a(row, hash);
  char hex[20];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(hash));
  return hex;
}

/// The digests.txt line for `key`, or empty when none is recorded.
std::string RecordedDigest(const Options& options, const std::string& key) {
  std::ifstream in(options.digests);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + " ", 0) == 0) return line.substr(key.size() + 1);
  }
  return "";
}

std::string DigestKey(const Options& options) {
  return options.workload + (options.smoke ? " smoke" : " full");
}

/// Output checks shared by traced and untraced runs: failures, the
/// decision-latency gate, the default-seed digest, and the production
/// ExperimentRunner reproducing the first cells' rows.
void CheckCells(const Options& options, const SimGrid& grid, const CellRun& run,
                Report& report) {
  if (run.failed > 0) report.Check("cells", false, run.first_error);
  report.Attempted(run.cells.size());
  report.Failed(run.failed);

  // decision_max_us is wall clock, so a host preemption inside one of a
  // run's millions of decisions can reach the gate (one did, at 11.2 ms).
  // A cell that reaches it runs again and fails the gate only if its
  // rerun does too: a slow decision repeats, a preemption does not.
  double worst = 0.0;
  std::size_t over = 0;
  double worst_rerun = 0.0;
  for (std::size_t i = 0; i < run.cells.size(); ++i) {
    worst = std::max(worst, run.cells[i].decision_max_us);
    if (run.cells[i].decision_max_us < kDecisionGateUs) continue;
    ++over;
    const hs::SimSpec spec = CellSpec(grid, options.seed, i);
    hs::SimulationSession session(spec, BuildTrace(spec));
    worst_rerun = std::max(worst_rerun, session.Run().decision_max_us);
  }
  report.Check("decision_gate", worst_rerun < kDecisionGateUs,
               "max decision " + std::to_string(worst) + " us, " + std::to_string(over) +
                   " cells at the 10000 us gate, worst rerun " + std::to_string(worst_rerun) +
                   " us");

  if (options.seed == kDigestSeed) {
    const std::string recorded = RecordedDigest(options, DigestKey(options));
    const bool enough = run.head_rows.size() >= grid.digest_cells;
    const std::string actual = enough ? RowsDigest(run.head_rows) : "";
    report.Check("digest", enough && !recorded.empty() && actual == recorded,
                 "first " + std::to_string(grid.digest_cells) + " rows " +
                     (enough ? actual : "(too few cells ran)") + ", recorded " +
                     (recorded.empty() ? "(none)" : recorded));
  }

  const std::size_t count = std::min<std::size_t>(run.cells.size(), 4);
  std::vector<hs::SimSpec> specs;
  for (std::size_t i = 0; i < count; ++i) specs.push_back(CellSpec(grid, options.seed, i));
  hs::ThreadPool pool(1);
  hs::ExperimentRunner runner(pool);
  const std::vector<hs::SpecResult> rows = runner.Run(specs);
  bool same = true;
  for (std::size_t i = 0; i < count; ++i) same = same && RowDigest(rows[i]) == run.cells[i].digest;
  report.Check("runner_rows", same,
               "ExperimentRunner rows of the first " + std::to_string(count) + " cells");
}

}  // namespace

void PrintSimDigests(const Options& options) {
  const SimGrid grid = MakeGrid(options);
  std::vector<hs::SimSpec> specs;
  for (std::size_t i = 0; i < grid.digest_cells; ++i) {
    specs.push_back(CellSpec(grid, kDigestSeed, i));
  }
  hs::ThreadPool pool(1);
  hs::ExperimentRunner runner(pool);
  std::vector<std::string> rows;
  for (const hs::SpecResult& row : runner.Run(specs)) rows.push_back(StrippedCsv(row));
  std::printf("%s %s\n", DigestKey(options).c_str(), RowsDigest(rows).c_str());
}

void RunSimWorkload(const Options& options, Report& report) {
  const SimGrid grid = MakeGrid(options);

  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < kSetupTraces; ++i) {
      (void)BuildTrace(CellSpec(grid, options.seed, i));
    }
    setup_s.push_back(Since(t0));
  }

  const CellRun run = RunProductionCells(
      grid, options.seed, After(options.traced ? options.seconds / 2 : options.seconds));
  const std::vector<Cell>& cells = run.cells;
  std::vector<double> op_ms;
  for (const Cell& cell : cells) op_ms.push_back(cell.ms);
  ReportEndToEnd(report, op_ms, setup_s);
  CheckCells(options, grid, run, report);
  if (!options.traced) return;

  // Traced pass: the same cells through the traced harness.
  LayerTotals totals[kThreads];
  SpanLog logs[kThreads] = {SpanLog(1), SpanLog(2)};
  Slots<std::uint64_t> digests;
  CsvRunSink sink;
  int workload_span[kThreads];
  for (int t = 0; t < kThreads; ++t) workload_span[t] = logs[t].Begin(options.workload);
  ClosedLoop(kThreads, Clock::time_point::max(), cells.size(), [&](std::size_t i, int t) {
    const hs::SimSpec spec = CellSpec(grid, options.seed, i);
    SpanLog& log = logs[t];
    const int cell_span = log.Begin("cell " + spec.ToString());
    const int trace_span = log.Begin("trace_build");
    const std::shared_ptr<const hs::Trace> trace = BuildTrace(spec);
    log.End(trace_span);
    const Span& built = log.spans()[static_cast<std::size_t>(trace_span)];
    totals[t].AddTrace(Seconds(built.end - built.start), trace->jobs.size());
    const hs::SpecResult row = RunTracedCell(spec, trace, sink, i, totals[t], log, i == 0);
    log.End(cell_span);
    digests.Put(i, RowDigest(row));
  });
  for (int t = 0; t < kThreads; ++t) logs[t].End(workload_span[t]);
  for (int t = 1; t < kThreads; ++t) totals[0].Merge(totals[t]);
  const LayerTotals& all = totals[0];
  report.Attempted(cells.size());

  const std::vector<std::uint64_t> traced_rows = digests.Take(cells.size());
  bool same_rows = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    same_rows = same_rows && traced_rows[i] == cells[i].digest;
  }
  report.Check("traced_rows", same_rows,
               "traced harness rows vs SimulationSession rows, " +
                   std::to_string(cells.size()) + " cells");

  ReportLayers(all, report);
  const double compute_p50 = hs::Percentile(all.run_ms, 0.50);
  report.Metric("exp.op_compute_p50_ms", compute_p50, "ms");
  report.Metric("exp.op_overhead_p50_ms", hs::Percentile(all.cell_ms, 0.50) - compute_p50, "ms");
  report.Metric("exp.op_overhead_p90_ms",
                hs::Percentile(all.cell_ms, 0.90) - hs::Percentile(all.run_ms, 0.90), "ms");
  report.Metric("trace.overhead", Sum(all.cell_ms) / Sum(op_ms) - 1.0, "ratio");
  if (!options.trace_out.empty()) WriteChromeTrace(options.trace_out, {&logs[0], &logs[1]});
}

}  // namespace e2e
