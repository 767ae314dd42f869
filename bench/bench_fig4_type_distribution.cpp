// Fig. 4: job-type distributions across the randomly generated traces.
// Project-level assignment (10% on-demand / 60% rigid / 30% malleable
// projects) yields trace-level job shares that vary widely because projects
// differ in activity — exactly the spread the paper shows.
#include <cstdio>
#include <exception>

#include "exp/sim_spec.h"
#include "util/env.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/characterize.h"

using namespace hs;

int main() try {
  const BenchScale scale = ResolveBenchScale();
  const int traces = std::max(10, scale.seeds);
  std::printf("=== Fig. 4: job-type distribution across %d generated traces ===\n\n",
              traces);

  SimSpec spec = SimSpec::Parse("baseline/FCFS/W5");
  spec.weeks = scale.weeks;
  TextTable table({"Trace", "Jobs", "Rigid", "On-demand", "Malleable",
                   "OD node-hours"});
  RunningStats od_share;
  for (int i = 0; i < traces; ++i) {
    spec.seed = 2000 + static_cast<std::uint64_t>(i);
    const Trace trace = spec.BuildTrace();
    const ClassShares shares = JobClassShares(trace);
    const ClassShares nh = NodeHourClassShares(trace);
    od_share.Add(shares.on_demand);
    // Appended, not "T" + to_string(i): GCC 12 inlines that operator+ into
    // a memcpy it then reports as a -Wrestrict overlap.
    std::string label = "T";
    label += std::to_string(i);
    table.AddRow({label, std::to_string(trace.jobs.size()),
                  FmtPct(shares.rigid, 1), FmtPct(shares.on_demand, 1),
                  FmtPct(shares.malleable, 1), FmtPct(nh.on_demand, 1)});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("on-demand job share: min %.1f%% / mean %.1f%% / max %.1f%% "
              "(paper: 3%%-15%% across traces)\n",
              100 * od_share.min(), 100 * od_share.mean(), 100 * od_share.max());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
