// The five workloads. Each runs in its own hs_bench process, measures for
// Options::seconds (a traced run splits that between an untraced and a
// traced pass over the same operations), checks its outputs, and adds its
// metrics to the Report. README.md says why each workload exists.
#pragma once

#include "bench_util.h"

namespace e2e {

/// paper_grid and aimix_storm: closed-loop cells on two threads.
void RunSimWorkload(const Options& options, Report& report);

/// fabric_local and fabric_tcp: closed-loop sweeps through ShardedRunner.
void RunFabricWorkload(const Options& options, Report& report);

/// service_mix: a live hs_server driven by a writer and a reader connection
/// in lockstep rounds.
void RunServiceWorkload(const Options& options, Report& report);

/// Prints the default-seed digest line of a sim workload (`--print-digests`).
void PrintSimDigests(const Options& options);

}  // namespace e2e
