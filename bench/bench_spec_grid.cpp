// Every spec sweep of the reproduction, run through ExperimentRunner at full
// width: the paper's Table II, Fig. 6 and Fig. 7, the ablations, and (the
// default) the complete mechanism x ordering-policy grid. Each sweep is one
// entry of the table in Sweeps(): a spec template, row and column axis
// values, a base seed, the metric panels to print and the expected shape.
// One flat vector of SimSpecs runs per sweep, with results streamed to CSV
// as cells complete. Doubles as the API example for spec-driven sweeps, as a
// perf smoke of the trace-sharing runner, and as the differential harness
// for the multi-process path: --shards=K scatters the same sweep across
// hs_worker processes, and the merged CSV is byte-identical to the
// single-process run on every simulation-content column (pass
// --strip-wallclock and diff the two files).
//
// Flags (RejectUnknown enforced):
//   --sweep=NAME        grid (default) | table2 | fig6 | fig7 | backfill |
//                       failures | malleable-min | od-share | expand |
//                       static-partition | warning
//   --quick             1 week x 2 seeds (the CI differential scale)
//   --weeks=N --seeds=N explicit scale (defaults: HYBRIDSCHED_WEEKS/_SEEDS)
//   --preset=NAME       scenario preset for every cell (default: paper);
//                       burst/diurnal/aimix/paper-xl sweep the generator
//                       presets (docs/SCENARIOS.md)
//   --out=PATH          write the streamed CSV here (HYBRIDSCHED_GRID_CSV)
//   --strip-wallclock   omit decision_avg_us/decision_max_us -> diffable
//   --digest            print the streaming percentile digest (p50/p90/p99
//                       per headline metric, O(1) memory) after the run
//   --shards=K          run through ShardedRunner with K hs_worker procs
//   --hosts=H1:P1,...   dispatch units to remote hs_agent daemons over TCP
//                       (work-stealing; defaults --shards to 3x host count)
//   --worker-bin=PATH   hs_worker override (default: next to this binary)
//   --retries=N         respawns per failed shard beyond the first attempt
//   --shard-timeout=S   kill + retry a worker silent for S seconds (0: off)
//   --best-effort       quarantine isolated poison cells instead of failing
//
// With --shards=K the run ends with a fabric summary (launches, retries,
// hang kills, wasted vs useful cell executions, quarantined cells) so
// retry overhead is visible in the BENCH artifacts.
#include <chrono>
#include <climits>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "core/mechanism.h"
#include "exp/paper_tables.h"
#include "exp/quantile_sink.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/sharded_runner.h"
#include "exp/transport.h"
#include "metrics/report.h"
#include "sched/policy.h"
#include "util/cli.h"
#include "util/env.h"

using namespace hs;

namespace {

/// One value of a sweep axis: the label it prints under and the text that
/// replaces the axis placeholder in the spec template.
struct AxisValue {
  std::string label;
  std::string fragment;
};

/// One RenderMetricGrid table of a 2-D sweep: a value per mean cell (the
/// seed count is there for counters, which MeanResult sums).
struct Panel {
  std::string name;
  int digits;
  bool percent;
  std::function<double(const SimResult& mean, int seeds)> value;
};

std::vector<Panel> MetricPanels(const std::vector<MetricKind>& kinds) {
  std::vector<Panel> panels;
  for (const MetricKind kind : kinds) {
    const bool percent = MetricIsPercent(kind);
    panels.push_back({MetricName(kind), percent ? 1 : 2, percent,
                      [kind](const SimResult& m, int) { return ExtractMetric(m, kind); }});
  }
  return panels;
}

struct Sweep;
/// Extra lines printed from the seed means, cell (r, c) at r * |cols| + c
/// (`seeds` is there for counters, which MeanResult sums).
using Report = void (*)(const Sweep& sweep, const std::vector<SimResult>& means, int seeds);

/// A sweep as data. A cell's spec is `spec` with "{row}" and "{col}"
/// replaced by the axis fragments; every cell averages --seeds traces
/// seeded from `base_seed` up. A sweep without columns is 1-D and prints
/// one comparison table; a 2-D sweep prints one grid per panel.
struct Sweep {
  std::string name;
  std::string title;
  std::string spec;
  std::vector<AxisValue> rows;
  std::vector<AxisValue> cols;
  std::uint64_t base_seed;
  std::vector<Panel> panels;
  std::string note;
  Report report = nullptr;
};

std::string Fill(std::string text, const std::string& key, const std::string& value) {
  const std::size_t at = text.find(key);
  if (at != std::string::npos) text.replace(at, key.size(), value);
  return text;
}

std::vector<AxisValue> Named(const std::vector<std::string>& names) {
  std::vector<AxisValue> values;
  for (const std::string& name : names) values.push_back({name, name});
  return values;
}

const std::vector<AxisValue> kPaperMechanisms = {
    {"N&PAA", "N&PAA"},       {"N&SPAA", "N&SPAA"},   {"CUA&PAA", "CUA&PAA"},
    {"CUA&SPAA", "CUA&SPAA"}, {"CUP&PAA", "CUP&PAA"}, {"CUP&SPAA", "CUP&SPAA"}};

// The checkpoint interval as a fraction of the Daly optimum.
const std::vector<AxisValue> kCheckpointScales = {{"0.25x Daly", "0.25"},
                                                  {"0.50x Daly", "0.50"},
                                                  {"1.00x Daly", "1.00"},
                                                  {"2.00x Daly", "2.00"}};

void Table2Report(const Sweep&, const std::vector<SimResult>& means, int seeds) {
  const SimResult& mean = means[0];
  const auto per_run = [seeds](std::size_t total) {
    return static_cast<double>(total) / static_cast<double>(seeds);
  };
  std::printf("%s\n", RenderBaselineTable(mean).c_str());
  std::printf("supporting detail (per run): wait %.1f h | allocated util %.1f%% | "
              "od jobs %.1f | completed %.1f | killed %.1f\n\n",
              mean.avg_wait_h, 100.0 * mean.allocated_utilization, per_run(mean.od_jobs),
              per_run(mean.jobs_completed), per_run(mean.jobs_killed));
}

// Shape checks against the paper's observations, each metric averaged over
// the notice mixes (rows: baseline then the six mechanisms).
void Fig6Report(const Sweep& sweep, const std::vector<SimResult>& means, int) {
  const std::size_t mixes = sweep.cols.size();
  auto avg_over_workloads = [&](std::size_t row, MetricKind metric) {
    double sum = 0.0;
    for (std::size_t w = 0; w < mixes; ++w) {
      sum += ExtractMetric(means[row * mixes + w], metric);
    }
    return sum / static_cast<double>(mixes);
  };
  auto mech_index = [&](const char* name) -> std::size_t {
    for (std::size_t i = 0; i < sweep.rows.size(); ++i) {
      if (sweep.rows[i].label == name) return i;
    }
    return 0;
  };

  const double base_instant = avg_over_workloads(0, MetricKind::kOdInstantRate);
  const double base_util = avg_over_workloads(0, MetricKind::kUtilization);
  double mech_instant = 0.0, mech_util = 0.0;
  double paa_util = 0.0, spaa_util = 0.0, paa_mall_pre = 0.0, spaa_mall_pre = 0.0;
  double cua_tat = 0.0, cup_tat = 0.0;
  for (std::size_t i = 1; i < sweep.rows.size(); ++i) {
    const std::string& label = sweep.rows[i].label;
    mech_instant += avg_over_workloads(i, MetricKind::kOdInstantRate) / 6.0;
    mech_util += avg_over_workloads(i, MetricKind::kUtilization) / 6.0;
    const bool spaa = label.find("SPAA") != std::string::npos;
    (spaa ? spaa_util : paa_util) += avg_over_workloads(i, MetricKind::kUtilization) / 3.0;
    (spaa ? spaa_mall_pre : paa_mall_pre) +=
        avg_over_workloads(i, MetricKind::kMalleablePreemptRatio) / 3.0;
    if (label.rfind("CUA", 0) == 0) {
      cua_tat += avg_over_workloads(i, MetricKind::kAvgTurnaroundH) / 2.0;
    }
    if (label.rfind("CUP", 0) == 0) {
      cup_tat += avg_over_workloads(i, MetricKind::kAvgTurnaroundH) / 2.0;
    }
  }

  const std::size_t cua_spaa = mech_index("CUA&SPAA");
  const double mall_tat = avg_over_workloads(cua_spaa, MetricKind::kMalleableTurnaroundH);
  const double rigid_tat = avg_over_workloads(cua_spaa, MetricKind::kRigidTurnaroundH);

  std::printf("shape checks vs paper:\n");
  std::printf("  [%s] Obs.1  instant-start: baseline %.0f%% -> mechanisms %.0f%%\n",
              mech_instant > base_instant + 0.3 ? "ok" : "??",
              100 * base_instant, 100 * mech_instant);
  std::printf("  [%s] Obs.1  utilization: baseline %.1f%% -> mechanisms %.1f%%\n",
              mech_util >= base_util - 0.02 ? "ok" : "??", 100 * base_util,
              100 * mech_util);
  std::printf("  [%s] Obs.3  SPAA util %.1f%% >= PAA util %.1f%%\n",
              spaa_util >= paa_util - 0.005 ? "ok" : "??", 100 * spaa_util,
              100 * paa_util);
  std::printf("  [%s] Obs.3  SPAA malleable preemption %.1f%% < PAA %.1f%%\n",
              spaa_mall_pre < paa_mall_pre ? "ok" : "??", 100 * spaa_mall_pre,
              100 * paa_mall_pre);
  std::printf("  [%s] Obs.5  CUA turnaround %.1f h <= CUP %.1f h\n",
              cua_tat <= cup_tat + 0.5 ? "ok" : "??", cua_tat, cup_tat);
  std::printf("  [%s] Obs.6  CUA&SPAA malleable %.1f h < rigid %.1f h (incentive)\n\n",
              mall_tat < rigid_tat ? "ok" : "??", mall_tat, rigid_tat);
}

// Obs. 13: the utilization half reproduces directly (dump overhead is
// counted as job execution); the turnaround half inverts, see the note.
void Fig7Report(const Sweep& sweep, const std::vector<SimResult>& cell_means, int) {
  const std::size_t scales = sweep.cols.size();
  double frequent_tat = 0.0, daly_tat = 0.0, frequent_util = 0.0, daly_util = 0.0;
  for (std::size_t m = 0; m < sweep.rows.size(); ++m) {
    frequent_tat += cell_means[m * scales + 0].rigid_turnaround_h / 6.0;
    daly_tat += cell_means[m * scales + 2].rigid_turnaround_h / 6.0;
    frequent_util += cell_means[m * scales + 0].utilization / 6.0;
    daly_util += cell_means[m * scales + 2].utilization / 6.0;
  }
  std::printf("shape checks vs paper (Obs. 13):\n");
  std::printf("  [%s] utilization rises with checkpoint frequency: 0.25x Daly "
              "%.1f%% vs 1.0x Daly %.1f%%\n",
              frequent_util > daly_util ? "ok" : "??", 100 * frequent_util,
              100 * daly_util);
  std::printf("  [deviation] rigid turnaround at 0.25x Daly = %.1f h vs 1.0x = "
              "%.1f h: cost-ordered victim selection already avoids lost work, "
              "so extra dumps only add congestion (paper saw the opposite; "
              "see docs/SCENARIOS.md, Known deviations)\n\n",
              frequent_tat, daly_tat);
}

std::vector<Sweep> Sweeps() {
  std::vector<std::string> mechanisms = {"baseline"};
  for (const std::string& name : MechanismNames()) {
    if (name != "baseline") mechanisms.push_back(name);
  }
  std::vector<AxisValue> fig6_rows = {{"FCFS/EASY", "baseline"}};
  fig6_rows.insert(fig6_rows.end(), kPaperMechanisms.begin(), kPaperMechanisms.end());

  return {
      {"grid", "Spec grid: mechanisms x policies", "{row}/{col}/W5", Named(mechanisms),
       Named(PolicyNames()), 800,
       MetricPanels({MetricKind::kAvgTurnaroundH, MetricKind::kUtilization,
                     MetricKind::kOdInstantRate}),
       "shape check: instant-start stays high under every ordering policy — the "
       "mechanisms act on running jobs, orthogonally to queue order (§I)."},

      // Paper reference: Theta 2019, full year.
      {"table2", "Table II: baseline FCFS/EASY", "baseline/FCFS/W5", {{"FCFS/EASY", ""}},
       {}, 1000, {},
       "paper reports: 15.6 hours | 83.93% | 22.69% (turnaround runs higher here: "
       "docs/SCENARIOS.md, Known deviations)",
       Table2Report},

      // The headline experiment: baseline + the six mechanisms across the
      // Table III notice mixes.
      {"fig6", "Table III / Fig. 6: mechanisms x notice mixes", "{row}/FCFS/{col}",
       fig6_rows, Named({"W1", "W2", "W3", "W4", "W5"}), 42, MetricPanels(Fig6Metrics()),
       "expected: Obs. 2 N&PAA worst overall; Obs. 11 CUP peaks on W2 (accurate "
       "notices); Obs. 12 CUA's best turnaround is on W4 (late arrivals).",
       Fig6Report},

      // "50% means rigid jobs make checkpoints twice as frequent as the
      // optimal frequency."
      {"fig7", "Fig. 7: checkpoint interval sweep on W5",
       "{row}/FCFS/W5/ckpt_scale={col}", kPaperMechanisms, kCheckpointScales, 77,
       MetricPanels({MetricKind::kRigidTurnaroundH, MetricKind::kUtilization,
                     MetricKind::kOdInstantRate}),
       "expected (Obs. 13): more frequent checkpoints reduce rigid turnaround and "
       "raise utilization; only the utilization half reproduces (docs/SCENARIOS.md, "
       "Known deviations).",
       Fig7Report},

      // §III-B1 allows backfilling onto reserved nodes (killed at arrival).
      // W2 has accurate notices, where reservations live longest.
      {"backfill", "Ablation: backfill on reserved nodes (W2)", "{row}",
       {{"CUA&SPAA +backfill", "CUA&SPAA/FCFS/W2/backfill=1"},
        {"CUA&SPAA -backfill", "CUA&SPAA/FCFS/W2/backfill=0"},
        {"CUP&SPAA +backfill", "CUP&SPAA/FCFS/W2/backfill=1"},
        {"CUP&SPAA -backfill", "CUP&SPAA/FCFS/W2/backfill=0"}},
       {}, 900, {},
       "expected: +backfill improves utilization/turnaround slightly at the cost of "
       "occasional tenant kills on early arrivals."},

      // Fig. 7 with real hardware failures, which strike uniformly rather
      // than right after checkpoints. A node MTBF of 1 year fails a 1K-node
      // job about every 8.7 hours, a petascale-era rate (the Daly inputs
      // keep their own MTBF).
      {"failures", "Ablation: checkpoint interval under failure injection (CUA&SPAA, W5)",
       "CUA&SPAA/FCFS/W5/ckpt_scale={col}{row}",
       {{"no failures", ""},
        {"node MTBF 4y", "/failures=1/mtbf_days=1460"},
        {"node MTBF 1y", "/failures=1/mtbf_days=365"}},
       kCheckpointScales, 960,
       {{"rigid turnaround (h)", 1, false,
         [](const SimResult& m, int) { return m.rigid_turnaround_h; }},
        {"lost node-h (x1000)", 0, false,
         [](const SimResult& m, int) { return m.lost_node_hours / 1000.0; }},
        {"failures", 0, false,
         [](const SimResult& m, int seeds) {
           return static_cast<double>(m.failures / static_cast<std::size_t>(seeds));
         }}},
       "expected: without failures the Daly interval (or longer) wins; as the failure "
       "rate rises, the optimum shifts toward more frequent checkpoints — the regime "
       "where Fig. 7's advice applies."},

      // §IV-B fixes the malleable minimum at 20% of the request.
      {"malleable-min", "Ablation: malleable min-size fraction (N&SPAA, W5)",
       "N&SPAA/FCFS/W5/malleable_min={row}",
       {{"min=10%", "0.1"}, {"min=20%", "0.2"}, {"min=50%", "0.5"}}, {}, 920, {},
       "expected: smaller minima raise the shrink supply, cutting malleable "
       "preemptions; very small minima stretch malleable turnaround instead."},

      // §IV-B default: 10% of projects submit on-demand work; the malleable
      // project share stays at 30%.
      {"od-share", "Ablation: on-demand project share (CUA&SPAA, W5)",
       "CUA&SPAA/FCFS/W5/od_share={row}",
       {{"od-projects=5%", "0.05/rigid_share=0.65"},
        {"od-projects=10%", "0.10/rigid_share=0.60"},
        {"od-projects=20%", "0.20/rigid_share=0.50"},
        {"od-projects=30%", "0.30/rigid_share=0.40"}},
       {}, 930, {},
       "expected: instant-start stays high while batch turnaround and preemption "
       "ratios degrade as the on-demand share grows (Obs. 9: limited by simultaneous "
       "on-demand demand)."},

      // Extension: also grow running malleable jobs onto idle nodes at every
      // pass, not only when their on-demand borrower completes (§III-B3).
      {"expand", "Ablation: opportunistic malleable expansion (W5)", "{row}",
       {{"N&SPAA        ", "N&SPAA/FCFS/W5/expand=0"},
        {"N&SPAA +expand", "N&SPAA/FCFS/W5/expand=1"},
        {"CUA&SPAA        ", "CUA&SPAA/FCFS/W5/expand=0"},
        {"CUA&SPAA +expand", "CUA&SPAA/FCFS/W5/expand=1"}},
       {}, 950, {},
       "expected: +expand shortens malleable turnaround (idle nodes get used) while "
       "slightly increasing the shrink traffic when the next on-demand burst lands."},

      // The "dedicated on-demand cluster" status quo of the paper's
      // introduction versus one shared pool.
      {"static-partition",
       "Ablation: static on-demand partition vs hybrid mechanisms (W5)", "{row}",
       {{"shared, FCFS/EASY", "baseline/FCFS/W5"},
        {"static partition 256", "baseline/FCFS/W5/partition=256"},
        {"static partition 512", "baseline/FCFS/W5/partition=512"},
        {"static partition 1024", "baseline/FCFS/W5/partition=1024"},
        {"hybrid CUA&SPAA", "CUA&SPAA/FCFS/W5"}},
       {}, 940, {},
       "expected: small partitions leave on-demand jobs queueing behind each other; "
       "large partitions idle away capacity (lower utilization, longer batch "
       "turnaround); the hybrid mechanism dominates both."},

      // §III-A adopts Amazon's 2-minute warning; N&PAA leans hardest on
      // arrival-time preemption.
      {"warning", "Ablation: malleable warning window (N&PAA, W5)",
       "N&PAA/FCFS/W5/warning={row}",
       {{"warning=0s", "0"}, {"warning=2m00s", "120"}, {"warning=10m00s", "600"}}, {},
       910, {},
       "expected: longer warnings delay on-demand starts (lower strict instant-start) "
       "but change little else; 2 minutes is a sweet spot."},
  };
}

Sweep FindSweep(const std::string& name) {
  std::string known;
  for (Sweep& sweep : Sweeps()) {
    if (sweep.name == name) return std::move(sweep);
    known += (known.empty() ? "" : ", ") + sweep.name;
  }
  throw std::invalid_argument("unknown sweep '" + name + "' (known: " + known + ")");
}

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv);
  BenchScale scale = ResolveBenchScale();
  if (args.GetBool("quick", false)) {
    scale.weeks = 1;
    scale.seeds = 2;
  }
  scale.weeks = static_cast<int>(args.GetInt("weeks", scale.weeks, 1, INT_MAX));
  scale.seeds = static_cast<int>(args.GetInt("seeds", scale.seeds, 1, INT_MAX));
  const int shards = static_cast<int>(args.GetInt("shards", 0, 0, INT_MAX));
  const std::string hosts = args.GetString("hosts", "");
  const std::string csv_path =
      args.GetString("out", EnvString("HYBRIDSCHED_GRID_CSV", ""));
  const bool strip_wallclock = args.GetBool("strip-wallclock", false);
  const std::string worker_bin = args.GetString("worker-bin", "");
  const int retries = static_cast<int>(args.GetInt("retries", 0, 0, INT_MAX));
  const double shard_timeout = args.GetDouble("shard-timeout", 0.0);
  if (shard_timeout < 0) throw std::invalid_argument("--shard-timeout must be >= 0");
  const bool best_effort = args.GetBool("best-effort", false);
  const std::string preset =
      ScenarioRegistry().Canonical(args.GetString("preset", "paper"));
  const bool digest = args.GetBool("digest", false);
  const Sweep sweep = FindSweep(args.GetString("sweep", "grid"));
  args.RejectUnknown();

  const std::vector<AxisValue> cols =
      sweep.cols.empty() ? std::vector<AxisValue>{AxisValue{}} : sweep.cols;
  std::printf("=== %s — %zu cells on preset '%s' (%d weeks x %d seeds per cell) "
              "===\n\n",
              sweep.title.c_str(), sweep.rows.size() * cols.size(), preset.c_str(),
              scale.weeks, scale.seeds);

  // One flat spec vector, row-major then column, seeds innermost.
  std::vector<SimSpec> specs;
  for (const AxisValue& row : sweep.rows) {
    for (const AxisValue& col : cols) {
      SimSpec base = SimSpec::Parse(
          Fill(Fill(sweep.spec, "{row}", row.fragment), "{col}", col.fragment));
      base.preset = preset;
      base.weeks = scale.weeks;
      for (const SimSpec& seeded : SeedSweep(base, scale.seeds, sweep.base_seed)) {
        specs.push_back(seeded);
      }
    }
  }

  // Stream every completed cell as a CSV row (to a file when requested,
  // else into a discarded buffer — the streaming path still runs). The
  // merging sink pins the row order to canonical spec order, so the bytes
  // do not depend on thread or worker completion order.
  std::ofstream csv_file;
  std::ostringstream csv_buffer;
  if (!csv_path.empty()) csv_file.open(csv_path);
  std::ostream& csv_out = csv_file.is_open() ? static_cast<std::ostream&>(csv_file)
                                             : csv_buffer;
  CsvResultSink sink(csv_out, {.include_wallclock = !strip_wallclock});
  // The digest sits behind the merging sink too: P^2 estimates depend on
  // insertion order, so canonical spec order makes the digest of a sharded
  // run identical to the single-process one.
  QuantileResultSink quantiles;
  std::vector<ResultSink*> fanout = {&sink};
  if (digest) fanout.push_back(&quantiles);
  TeeResultSink tee(std::move(fanout));
  MergingResultSink merged(tee, specs.size());

  const auto started = std::chrono::steady_clock::now();
  std::vector<SpecResult> rows;
  if (shards > 0 || !hosts.empty()) {
    ShardedRunnerOptions options;
    // With --hosts but no --shards, default to 3 units per agent so the
    // work-stealing queue has enough granularity to balance uneven hosts.
    options.shards = shards > 0 ? static_cast<std::size_t>(shards)
                                : 3 * ParseHostList(hosts).size();
    options.worker_cmd = worker_bin;
    options.retry.max_attempts = retries + 1;
    options.shard_timeout_s = shard_timeout;
    options.best_effort = best_effort;
    options.hosts = hosts;
    ShardedRunner runner(options);
    rows = runner.Run(specs, &merged);
    // Quarantined cells never arrive: account for them explicitly so every
    // healthy row still flushes through the order-restoring merge.
    for (const FabricCellError& cell : runner.last_report().quarantined) {
      merged.Skip(cell.spec_index);
    }
    std::printf("scattered %zu cells as %zu units via %s\n", specs.size(),
                runner.last_plan().shard_count(),
                runner.last_report().transport.c_str());
    std::printf("%s\n", runner.last_report().Summary().c_str());
  } else {
    ThreadPool pool;
    ExperimentRunner runner(pool);
    rows = runner.Run(specs, &merged);
  }
  merged.Finish();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  const auto means = GroupMeans(rows, static_cast<std::size_t>(scale.seeds));

  if (sweep.cols.empty()) {
    std::vector<LabeledResult> table;
    for (std::size_t r = 0; r < sweep.rows.size(); ++r) {
      table.push_back({sweep.rows[r].label, means[r]});
    }
    std::printf("%s\n", RenderComparisonTable(table).c_str());
  }
  std::vector<std::string> row_labels, col_labels;
  for (const AxisValue& row : sweep.rows) row_labels.push_back(row.label);
  for (const AxisValue& col : sweep.cols) col_labels.push_back(col.label);
  for (const Panel& panel : sweep.panels) {
    std::vector<std::vector<double>> cells(row_labels.size(),
                                           std::vector<double>(col_labels.size()));
    for (std::size_t r = 0; r < row_labels.size(); ++r) {
      for (std::size_t c = 0; c < col_labels.size(); ++c) {
        cells[r][c] = panel.value(means[r * col_labels.size() + c], scale.seeds);
      }
    }
    std::printf("%s\n", RenderMetricGrid(panel.name, row_labels, col_labels, cells,
                                         panel.digits, panel.percent)
                            .c_str());
  }
  if (sweep.report != nullptr) sweep.report(sweep, means, scale.seeds);

  if (digest) std::printf("%s\n", quantiles.Summary().c_str());
  std::printf("ran %zu cells (%zu simulations) in %.1f s (%.2f sims/s)\n",
              means.size(), rows.size(), elapsed_s,
              static_cast<double>(rows.size()) / elapsed_s);
  if (csv_file.is_open()) {
    std::printf("streamed rows to %s\n", csv_path.c_str());
  }
  std::printf("\n%s\n", sweep.note.c_str());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
