// Table I + Fig. 3: the synthetic Theta-like workload — machine summary,
// and the number of jobs (outer ring in the paper) and node-hours (inner
// ring) per size range.
#include <cstdio>
#include <exception>

#include "exp/sim_spec.h"
#include "util/env.h"
#include "util/table.h"
#include "workload/characterize.h"

using namespace hs;

int main() try {
  const BenchScale scale = ResolveBenchScale();
  SimSpec spec = SimSpec::Parse("baseline/FCFS/W5/seed=1");
  spec.weeks = scale.weeks;
  const Trace trace = spec.BuildTrace();
  const TraceSummary s = Summarize(trace);

  std::printf("=== Table I: synthetic Theta-like workload (%d weeks) ===\n\n",
              scale.weeks);
  TextTable info({"Field", "Value", "Paper (Theta 2019)"});
  info.AddRow({"Compute nodes", std::to_string(s.num_nodes), "4,392 KNL"});
  info.AddRow({"Trace period", FormatDuration(s.span), "Jan. - Dec. 2019"});
  info.AddRow({"Number of jobs", std::to_string(s.num_jobs), "37,298 (full year)"});
  info.AddRow({"Number of projects", std::to_string(s.num_projects), "211"});
  info.AddRow({"Maximum job length", FormatDuration(s.max_wall), "1 day"});
  info.AddRow({"Minimum job size", std::to_string(s.min_size) + " nodes", "128 nodes"});
  info.AddRow({"Offered load", Fmt(s.offered_load, 2), "(calibrated ~0.92)"});
  std::printf("%s\n", info.Render().c_str());

  std::printf("=== Fig. 3: jobs (outer) and node-hours (inner) by size range ===\n\n");
  const RangeHistogram hist = SizeHistogram(trace);
  TextTable fig3({"Size range (nodes)", "Jobs", "Jobs share", "Node-hours share"});
  for (std::size_t i = 0; i < hist.bins().size(); ++i) {
    fig3.AddRow({hist.bins()[i].label, std::to_string(hist.bins()[i].count),
                 FmtPct(hist.CountShare(i), 1), FmtPct(hist.WeightShare(i), 1)});
  }
  std::printf("%s\n", fig3.Render().c_str());
  std::printf("shape check: small jobs dominate the count; large jobs hold a "
              "disproportionate share of node-hours.\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
