// fabric_local and fabric_tcp: small sweeps, one after another, through
// ShardedRunner -- local fork/exec workers, or two loopback hs_agents the
// benchmark spawns. Every cell of every sweep has its own scenario seed and
// a 2-week horizon: sweeps then cost nearly the same, so their latencies
// stay on one step of the fabric's 20 ms poll and the tail stops jumping
// between steps from seed to seed.
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "core/mechanism.h"
#include "exp/runner.h"
#include "exp/sharded_runner.h"
#include "traced_cell.h"
#include "util/subprocess.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace e2e {

namespace {

/// Every this-many-th sweep (and the last) is re-run in process and
/// compared row for row.
constexpr std::size_t kCheckEvery = 16;
/// Sweeps re-run in process (the compute floor) and with a 1 ms fabric poll
/// in a traced run.
constexpr std::size_t kProbeSweeps = 30;
/// 8 mechanisms x 2 cells.
constexpr std::size_t kCellsPerSweep = 16;

std::vector<hs::SimSpec> SweepSpecs(const Options& options, std::size_t sweep) {
  std::vector<hs::SimSpec> specs;
  for (const std::string& mechanism : hs::MechanismNames()) {
    for (std::size_t s = 0; s < 2; ++s) {
      hs::SimSpec spec;
      spec.mechanism = mechanism;
      spec.preset = "paper";
      spec.weeks = options.smoke ? 1 : 2;
      spec.seed = ScenarioSeed(options.seed, kCellsPerSweep * sweep + specs.size());
      specs.push_back(spec);
    }
  }
  return specs;
}

/// Folds a sweep's merged rows, in the order they arrive, into one digest
/// and stamps when the first and last rows reached the sink.
class SweepSink final : public hs::ResultSink {
 public:
  void OnResult(std::size_t, const hs::SpecResult& row) override {
    const Clock::time_point now = Clock::now();
    if (rows_ == 0) first_ = now;
    last_ = now;
    ++rows_;
    digest_ = RowDigest(row, digest_);
  }
  std::size_t rows() const { return rows_; }
  std::uint64_t digest() const { return digest_; }
  Clock::time_point first() const { return first_; }
  Clock::time_point last() const { return last_; }

 private:
  std::size_t rows_ = 0;
  std::uint64_t digest_ = Fnv1a("");
  Clock::time_point first_;
  Clock::time_point last_;
};

/// Two hs_agent daemons on loopback ports, both spawned before either port
/// is awaited.
class AgentPair {
 public:
  AgentPair(const Options& options, const std::string& dir, int generation)
      : stem_(dir + "/agent" + std::to_string(generation) + "_"),
        first_(Spawn(options, stem_ + "0")),
        second_(Spawn(options, stem_ + "1")),
        hosts_("127.0.0.1:" + std::to_string(WaitForPortFile(stem_ + "0.port", first_)) +
               ",127.0.0.1:" + std::to_string(WaitForPortFile(stem_ + "1.port", second_))) {}

  const std::string& hosts() const { return hosts_; }

 private:
  static hs::Subprocess Spawn(const Options& options, const std::string& stem) {
    return hs::Subprocess::Spawn({options.bin_dir + "/hs_agent", "--port=0",
                                  "--port-file=" + stem + ".port", "--work-dir=" + stem,
                                  "--threads=1"},
                                 stem + ".out", stem + ".err");
  }

  std::string stem_;
  Child first_;
  Child second_;
  std::string hosts_;
};

struct SweepStats {
  std::vector<double> ms;
  std::vector<double> first_row_ms;    // Run() to the first row at the sink
  std::vector<double> tail_ms;         // last row to Run() returning
  std::vector<std::uint64_t> digests;  // merged rows, per sweep
  std::size_t units = 0;               // planned work units
  std::size_t launches = 0;            // worker launches, retries included
  std::size_t retries = 0;
  std::size_t conn_failures = 0;
  std::size_t scattered = 0;
  std::size_t merged = 0;
};

/// Runs sweeps 0, 1, ... until `deadline` (or `max_sweeps`), each timed
/// from Run() to its return; traced sweeps get a span each.
SweepStats RunSweeps(const Options& options, hs::ShardedRunnerOptions runner_options,
                     Clock::time_point deadline, std::size_t max_sweeps, SpanLog* log,
                     Report& report) {
  SweepStats stats;
  for (std::size_t j = 0; j < max_sweeps && Clock::now() < deadline; ++j) {
    const std::vector<hs::SimSpec> specs = SweepSpecs(options, j);
    hs::ShardedRunner runner(runner_options);
    SweepSink sink;
    report.Attempted(specs.size());
    const int span = log != nullptr ? log->Begin("sweep " + std::to_string(j)) : -1;
    const Clock::time_point t0 = Clock::now();
    try {
      runner.Run(specs, &sink);
    } catch (const std::exception& e) {
      report.Check("sweep " + std::to_string(j), false, e.what());
    }
    const Clock::time_point t1 = Clock::now();
    if (log != nullptr) {
      if (sink.rows() > 0) {
        log->Add("dispatch_to_first_row", t0, sink.first(), span);
        log->Add("gather_tail", sink.last(), t1, span);
      }
      log->End(span);
    }
    report.Failed(specs.size() - sink.rows());
    stats.ms.push_back(Seconds(t1 - t0) * 1e3);
    if (sink.rows() > 0) {
      stats.first_row_ms.push_back(Seconds(sink.first() - t0) * 1e3);
      stats.tail_ms.push_back(Seconds(t1 - sink.last()) * 1e3);
    }
    stats.digests.push_back(sink.digest());
    const hs::FabricReport& fabric = runner.last_report();
    stats.units += fabric.shard_count;
    stats.launches += fabric.workers_launched;
    stats.retries += fabric.retries;
    stats.conn_failures += fabric.conn_failures;
    stats.scattered += fabric.cells_scattered;
    stats.merged += fabric.rows_merged;
  }
  return stats;
}

/// In-process row digests (ExperimentRunner, 2 threads) of `sweeps`, with
/// each sweep's wall time: the fabric's compute floor and its row oracle.
std::vector<double> InProcessSweeps(const Options& options, const std::vector<std::size_t>& sweeps,
                                    std::vector<std::uint64_t>& digests) {
  hs::ThreadPool pool(2);
  hs::ExperimentRunner runner(pool);
  std::vector<double> ms;
  for (const std::size_t j : sweeps) {
    const Clock::time_point t0 = Clock::now();
    const std::vector<hs::SpecResult> rows = runner.Run(SweepSpecs(options, j));
    ms.push_back(Since(t0) * 1e3);
    std::uint64_t digest = Fnv1a("");
    for (const hs::SpecResult& row : rows) digest = RowDigest(row, digest);
    digests.push_back(digest);
  }
  return ms;
}

std::vector<double> Head(const std::vector<double>& values, std::size_t n) {
  return {values.begin(), values.begin() + static_cast<std::ptrdiff_t>(std::min(n, values.size()))};
}

}  // namespace

void RunFabricWorkload(const Options& options, Report& report) {
  const bool tcp = options.workload == "fabric_tcp";
  const std::string dir = options.work_dir + "/fabric";
  std::filesystem::create_directories(dir);

  // The default scratch dir (a fresh one per Run, under TMPDIR, which
  // hs_bench points into its work dir): rewriting one reused dir's shard
  // files measured 10-50x slower sweeps on ext4.
  hs::ShardedRunnerOptions runner_options;
  runner_options.worker_threads = 1;

  // Set-up: fabric_tcp spawns its two agents, until both ports are
  // published. fabric_local has no daemon; its start-up cost is the one
  // every unit pays, an hs_worker start on an empty shard.
  runner_options.shards = tcp ? 4 : 2;  // tcp: 4 units drained by 2 agents
  const std::string empty_shard = dir + "/empty.specs";
  std::ofstream(empty_shard) << "# hs-shard v1\n";
  std::vector<double> setup_s;
  std::unique_ptr<AgentPair> agents;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    if (tcp) {
      agents.reset();
      agents = std::make_unique<AgentPair>(options, dir, rep);
    } else {
      // Fresh output names: rewriting a file costs an ext4 flush.
      const std::string out = dir + "/empty" + std::to_string(rep);
      const hs::ProcessStatus status =
          hs::RunProcess({options.bin_dir + "/hs_worker", "--shard=" + empty_shard,
                          "--out=" + out + ".jsonl", "--threads=1"},
                         out + ".stdout", out + ".stderr");
      if (!status.ok()) throw std::runtime_error("hs_worker start-up: " + status.Describe());
    }
    setup_s.push_back(Since(t0));
  }
  if (tcp) runner_options.hosts = agents->hosts();

  const SweepStats sweeps =
      RunSweeps(options, runner_options,
                After(options.traced ? options.seconds / 2 : options.seconds), SIZE_MAX,
                nullptr, report);
  // Reaped agents fold their own and their workers' peak RSS into
  // RUSAGE_CHILDREN, which peak_rss_mb reads.
  agents.reset();
  const std::size_t cells_per_sweep = SweepSpecs(options, 0).size();
  ReportEndToEnd(report, sweeps.ms, setup_s);
  const double busy_s = Sum(sweeps.ms) / 1e3;
  report.Metric("cells_per_s",
                busy_s > 0 ? static_cast<double>(sweeps.ms.size() * cells_per_sweep) / busy_s : 0,
                "1/s");
  report.Check("fabric_clean", sweeps.retries == 0 && sweeps.conn_failures == 0,
               std::to_string(sweeps.retries) + " retries, " +
                   std::to_string(sweeps.conn_failures) + " connection failures");

  // The merged rows of sampled sweeps must equal the in-process rows.
  std::vector<std::size_t> checked;
  for (std::size_t j = 0; j < sweeps.ms.size(); j += kCheckEvery) checked.push_back(j);
  if (!sweeps.ms.empty() && checked.back() != sweeps.ms.size() - 1) {
    checked.push_back(sweeps.ms.size() - 1);
  }
  std::vector<std::uint64_t> reference;
  InProcessSweeps(options, checked, reference);
  bool same = !checked.empty();
  for (std::size_t c = 0; c < checked.size(); ++c) {
    same = same && sweeps.digests[checked[c]] == reference[c];
  }
  report.Check("merged_rows", same,
               std::to_string(checked.size()) + " sweeps vs in-process ExperimentRunner");
  if (!options.traced) return;

  // Traced pass: the same sweeps again with spans (fabric_tcp on a fresh
  // agent pair), then the compute floor, the fabric at a 1 ms poll, and the
  // sweep-0 cells through the harness.
  if (tcp) {
    agents = std::make_unique<AgentPair>(options, dir, kSetupReps);
    runner_options.hosts = agents->hosts();
  }
  SpanLog log(1);
  const int workload_span = log.Begin(options.workload);
  const SweepStats traced = RunSweeps(options, runner_options, Clock::time_point::max(),
                                      sweeps.ms.size(), &log, report);
  log.End(workload_span);
  const std::size_t probes = std::min(kProbeSweeps, sweeps.ms.size());
  std::vector<std::size_t> probe_ids;
  for (std::size_t j = 0; j < probes; ++j) probe_ids.push_back(j);
  std::vector<std::uint64_t> inproc_digests;
  const std::vector<double> inproc_ms = InProcessSweeps(options, probe_ids, inproc_digests);
  hs::ShardedRunnerOptions fast_poll = runner_options;
  fast_poll.poll_interval_s = 0.001;
  const SweepStats polled =
      RunSweeps(options, fast_poll, Clock::time_point::max(), probes, nullptr, report);

  LayerTotals totals;
  DiscardStream harness_csv;
  hs::CsvResultSink sink(harness_csv);
  std::uint64_t harness_digest = Fnv1a("");
  const int harness_span = log.Begin("harness sweep 0");
  const std::vector<hs::SimSpec> specs = SweepSpecs(options, 0);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const int cell_span = log.Begin("cell " + specs[i].ToString());
    const Clock::time_point t0 = Clock::now();
    const auto trace = std::make_shared<const hs::Trace>(specs[i].BuildTrace());
    totals.AddTrace(Since(t0), trace->jobs.size());
    harness_digest =
        RowDigest(RunTracedCell(specs[i], trace, sink, i, totals, log, i == 0), harness_digest);
    log.End(cell_span);
  }
  log.End(harness_span);
  report.Check("traced_rows", !sweeps.digests.empty() && harness_digest == sweeps.digests[0],
               "traced harness rows vs the fabric's merged rows of sweep 0");
  same = true;
  for (std::size_t j = 0; j < probes; ++j) same = same && traced.digests[j] == inproc_digests[j];
  report.Check("traced_merged_rows", same,
               std::to_string(probes) + " traced sweeps vs in-process ExperimentRunner");

  // On the fabric, the op compute is the in-process sweep (the compute
  // floor) and the op overhead is the fabric's dispatch and gather.
  ReportLayers(totals, report);
  const std::vector<double> head = Head(traced.ms, probes);
  const double compute_p50 = hs::Percentile(inproc_ms, 0.50);
  report.Metric("exp.op_compute_p50_ms", compute_p50, "ms");
  report.Metric("exp.op_overhead_p50_ms", hs::Percentile(head, 0.50) - compute_p50, "ms");
  report.Metric("exp.op_overhead_p90_ms",
                hs::Percentile(head, 0.90) - hs::Percentile(inproc_ms, 0.90), "ms");
  report.Metric("trace.overhead", Sum(traced.ms) / Sum(sweeps.ms) - 1.0, "ratio");

  report.Metric("exp.fabric_first_row_p50_ms", hs::Percentile(traced.first_row_ms, 0.50), "ms");
  report.Metric("exp.fabric_tail_p50_ms", hs::Percentile(traced.tail_ms, 0.50), "ms");
  report.Metric("exp.fabric_poll_wait_p50_ms",
                hs::Percentile(head, 0.50) - hs::Percentile(polled.ms, 0.50), "ms");
  const double n = static_cast<double>(std::max<std::size_t>(traced.ms.size(), 1));
  report.Metric("exp.fabric_units", static_cast<double>(traced.units) / n, "count");
  report.Metric("exp.fabric_launches", static_cast<double>(traced.launches) / n, "count");
  report.Metric("exp.fabric_retries", static_cast<double>(traced.retries), "count");
  report.Metric("exp.fabric_conn_failures", static_cast<double>(traced.conn_failures), "count");
  report.Metric("exp.fabric_useful_ratio",
                traced.scattered ? static_cast<double>(traced.merged) /
                                       static_cast<double>(traced.scattered)
                                 : 0.0,
                "ratio");
  if (!options.trace_out.empty()) WriteChromeTrace(options.trace_out, {&log});
}

}  // namespace e2e
