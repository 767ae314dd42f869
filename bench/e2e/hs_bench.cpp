// hs_bench: one workload of the end-to-end benchmark, in its own process.
//
//   hs_bench --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1] [--smoke]
//            [--trace-out=FILE] [--digests=FILE]
//   hs_bench --workload=NAME --print-digests [--smoke]
//
// NAME is paper_grid, aimix_storm, service_mix, fabric_local or fabric_tcp.
// The run measures for --seconds (a --trace=1 run splits them between an
// untraced and a traced pass over the same operations), checks its
// outputs, prints every metric as `workload metric value unit`, and ends
// with one JSON line: {"correct", "attempted", "failed", "metrics"} where
// metrics are the end-to-end set (--trace=0) or the per-layer set
// (--trace=1) that BENCHMARK.json lists. --print-digests prints the
// default-seed row digest of a sim workload instead (digests.txt).
//
// Exit status: 0 when every check passed, 1 when one failed, 2 on bad
// flags.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "bench_util.h"
#include "util/cli.h"
#include "util/subprocess.h"
#include "workloads.h"

namespace {

using Contract = std::vector<std::pair<std::string, std::string>>;

const Contract kEndToEnd = {
    {"ops_per_s", "1/s"}, {"op_p50_ms", "ms"}, {"op_p90_ms", "ms"},
    {"setup_s", "s"},     {"peak_rss_mb", "MB"},
};

const Contract kPerLayer = {
    {"workload.trace_build_ms", "ms"}, {"workload.jobs", "count"},
    {"sim.events", "count"},           {"sim.batches", "count"},
    {"sim.loop_self_ms", "ms"},        {"core.submit_ms", "ms"},
    {"core.finish_ms", "ms"},          {"core.notice_ms", "ms"},
    {"core.other_ms", "ms"},           {"core.decisions", "count"},
    {"core.decision_max_us", "us"},    {"sched.pass_self_ms", "ms"},
    {"sched.pass_calls", "count"},     {"sched.pass_p50_us", "us"},
    {"sched.pass_p99_us", "us"},       {"sched.pass_share", "ratio"},
    {"sched.queue_depth_mean", "jobs"}, {"sched.batch_p99_us", "us"},
    {"sched.batch_p999_us", "us"},     {"metrics.finalize_ms", "ms"},
    {"exp.session_build_ms", "ms"},    {"exp.sink_ms", "ms"},
    {"exp.op_compute_p50_ms", "ms"},   {"exp.op_overhead_p50_ms", "ms"},
    {"exp.op_overhead_p90_ms", "ms"},  {"trace.overhead", "ratio"},
    {"trace.reconcile_gap", "ratio"},
};

bool IsSim(const std::string& w) { return w == "paper_grid" || w == "aimix_storm"; }
bool IsFabric(const std::string& w) { return w == "fabric_local" || w == "fabric_tcp"; }

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  bool print_digests = false;
  try {
    const hs::CliArgs args(argc, argv);
    options.workload = args.GetString("workload", "");
    options.seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));
    options.seconds = args.GetDouble("seconds", options.seconds);
    options.traced = args.GetInt("trace", 0) != 0;
    options.smoke = args.GetBool("smoke", false);
    options.bin_dir = hs::SelfExeDir();
    options.work_dir =
        options.bin_dir + "/../work/" + options.workload + "-" + std::to_string(getpid());
    options.trace_out = args.GetString("trace-out", "");
    options.digests = args.GetString("digests", "");
    print_digests = args.GetBool("print-digests", false);
    args.RejectUnknown();
    if (!IsSim(options.workload) && !IsFabric(options.workload) &&
        options.workload != "service_mix") {
      throw std::invalid_argument("unknown --workload '" + options.workload + "'");
    }
    if (options.seconds <= 0.0 || options.seconds > 120.0) {
      throw std::invalid_argument("--seconds must be in (0, 120]");
    }
    if (print_digests && !IsSim(options.workload)) {
      throw std::invalid_argument("--print-digests applies to paper_grid and aimix_storm");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hs_bench: %s\n", e.what());
    return 2;
  }

  if (print_digests) {
    e2e::PrintSimDigests(options);
    return 0;
  }

  e2e::Report report(options.workload);
  try {
    std::filesystem::create_directories(options.work_dir);
    // Every temp dir the library or a child makes stays in the work dir.
    setenv("TMPDIR", options.work_dir.c_str(), 1);
    if (IsSim(options.workload)) {
      e2e::RunSimWorkload(options, report);
    } else if (IsFabric(options.workload)) {
      e2e::RunFabricWorkload(options, report);
    } else {
      e2e::RunServiceWorkload(options, report);
    }
  } catch (const std::exception& e) {
    report.Check("run", false, e.what());
  }
  std::error_code ignored;
  std::filesystem::remove_all(options.work_dir, ignored);
  return report.Finish(options.traced ? kPerLayer : kEndToEnd) ? 0 : 1;
}
