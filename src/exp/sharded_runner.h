// ShardedRunner: ExperimentRunner's spec-vector contract, executed across
// worker processes — with a fault-tolerant fabric underneath.
//
// The orchestrator partitions the specs with a deterministic ShardPlan,
// runs one hs_worker per work unit through a Transport (transport.h) with
// the unit's shard text (shard_io.h) on its stdin, reads each worker's
// `# hs-fabric` frame stream of result rows, and merges the rows back
// into canonical spec order — so the merged output (CSV
// bytes included) is byte-identical to a single-process ExperimentRunner
// run on every simulation-content column, regardless of which worker or
// thread finished first, and regardless of how many workers died, hung,
// or dropped rows along the way:
//
//   retry/respawn  a worker that exits non-zero, dies on a signal, tears
//                  its final row, or drops rows is respawned on a fresh
//                  unit holding *only the missing spec indices*
//                  (rows already gathered are kept — the wire format's
//                  spec-index tagging makes resume exact), after an
//                  exponential backoff with deterministic seed-derived
//                  jitter (RetryPolicy).
//   hang detection hs_worker follows every row with a `# hs-progress`
//                  heartbeat in the same stream; the orchestrator counts
//                  stream bytes and SIGKILLs any worker whose stream
//                  stalls past `shard_timeout_s`, then retries it like
//                  any other death.
//   quarantine     a unit that keeps failing is bisected until the
//                  poison cell(s) are isolated. Under `best_effort` each
//                  poison cell becomes a structured error record (spec
//                  index + spec string + captured stderr) in the
//                  FabricReport while every healthy cell still reaches
//                  the sink; without `best_effort` the run stays
//                  fail-fast, but the error names the isolated cell.
//
// Failure surfacing is part of the contract: in fail-fast mode a terminal
// failure turns into a std::runtime_error naming the shard, the observed
// status/stderr, and the missing spec indices. A Run writes no file: units
// travel on worker stdin and worker stderr is kept in memory, so the
// error message and the quarantine records carry the stderr tail.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "exp/shard_plan.h"
#include "exp/sim_spec.h"

namespace hs {

/// Per-work-unit respawn budget and backoff shape. Attempt n of a unit
/// (n >= 2) starts backoff_initial_s * multiplier^(n-2) seconds (capped at
/// backoff_max_s) after its predecessor failed, stretched by a
/// deterministic jitter in [0, jitter_frac] derived from (jitter_seed,
/// origin shard, attempt) — so chaos tests replay the same schedule.
struct RetryPolicy {
  /// Worker launches per work unit before it is declared failed (1 =
  /// fail on the first death, the pre-fabric behavior).
  int max_attempts = 1;
  double backoff_initial_s = 0.05;
  double backoff_multiplier = 2.0;
  double backoff_max_s = 2.0;
  /// Max jitter as a fraction of the base backoff (0 disables).
  double jitter_frac = 0.25;
  std::uint64_t jitter_seed = 0;
};

/// One quarantined poison cell: which cell, what it was, why it failed.
struct FabricCellError {
  std::size_t spec_index = 0;
  std::string spec;    // canonical spec string
  std::string reason;  // last observed status + captured stderr tail
};

/// What the fabric did to finish (or give up on) the last Run: retry
/// overhead, hang kills, bisections, and the quarantine list. Exposed so
/// front-ends can print it next to the results — wasted work should be
/// visible, never silent.
struct FabricReport {
  std::size_t shard_count = 0;       // original plan width
  std::size_t workers_launched = 0;  // every spawn, incl. retries/bisections
  std::size_t retries = 0;           // respawns of a unit past its 1st attempt
  std::size_t bisections = 0;        // failing units split to isolate poison
  std::size_t hang_kills = 0;        // workers killed by the inactivity timeout
  std::size_t cells_scattered = 0;   // cell slots across every launch
  std::size_t rows_merged = 0;       // healthy rows that reached the sink
  /// Dispatches that never reached an executor (dead host, refused or
  /// dropped handshake). These consume no retry attempts and leave no
  /// launch/cell accounting behind — the unit was simply re-queued.
  std::size_t conn_failures = 0;
  /// Transport label of the last Run ("local-exec (3 slots)", "tcp (...)").
  std::string transport;
  /// Worker launches per original plan shard (retries and bisected
  /// descendants count toward their origin shard).
  std::vector<std::size_t> launches_per_shard;
  /// Poison cells (best_effort only), ascending by spec index.
  std::vector<FabricCellError> quarantined;

  /// True when every cell produced a row (nothing quarantined).
  bool complete() const { return quarantined.empty(); }
  /// Cell executions that produced no merged row (scattered - merged):
  /// the price paid for faults.
  std::size_t wasted_cells() const {
    return cells_scattered >= rows_merged ? cells_scattered - rows_merged : 0;
  }
  /// Human-readable multi-line block for bench/CLI output.
  std::string Summary() const;
};

struct ShardedRunnerOptions {
  /// Worker processes to scatter across (clamped to the spec count); also
  /// the cap on concurrently running workers while retrying.
  std::size_t shards = 2;
  /// Path of the worker binary; empty uses DefaultWorkerCommand() (the
  /// hs_worker next to the current executable).
  std::string worker_cmd;
  /// Threads per worker, forwarded as --threads (0: worker default, one
  /// thread per core — oversubscribes when shards > 1; set explicitly for
  /// benchmarking).
  int worker_threads = 0;
  /// Respawn budget and backoff for failed workers.
  RetryPolicy retry;
  /// Hang detection: SIGKILL a worker whose frame stream delivers no byte
  /// for this long, then retry it (0 disables; must exceed the longest
  /// single cell, since heartbeats fire per completed cell).
  double shard_timeout_s = 0.0;
  /// Cadence of the poll/heartbeat-watch loop.
  double poll_interval_s = 0.02;
  /// Degrade gracefully: quarantine isolated poison cells into the
  /// FabricReport and deliver every healthy row, instead of throwing.
  bool best_effort = false;
  /// Comma-separated `host:port` hs_agent endpoints. Empty (default) runs
  /// workers locally via fork/exec; non-empty switches to the TCP
  /// transport: one concurrency slot per agent, units drained
  /// work-stealing style by whichever agent is idle, and a dead
  /// connection treated as a dead worker (the unit is re-queued
  /// elsewhere without consuming a retry attempt).
  std::string hosts;
  /// TCP transport only: per-connect + greeting deadline.
  double connect_timeout_s = 5.0;
};

class ShardedRunner {
 public:
  explicit ShardedRunner(ShardedRunnerOptions options = {});

  /// Same contract as ExperimentRunner::Run — validates every spec up
  /// front (std::invalid_argument), returns rows in spec order, streams
  /// each row to `sink` — but rows arrive through worker processes and the
  /// sink always sees them in canonical spec order (the merge reorders).
  ///
  /// Fail-fast mode (default): throws std::runtime_error when a shard
  /// exhausts its retry budget or drops rows, naming the shard and (after
  /// bisection) the isolated poison cell. best_effort mode: never throws
  /// for unhealthy cells — the sink receives every healthy row in order
  /// (quarantined indices are simply absent), the returned vector holds
  /// default-constructed rows at quarantined positions, and last_report()
  /// lists exactly which cells were quarantined and why.
  std::vector<SpecResult> Run(const std::vector<SimSpec>& specs,
                              ResultSink* sink = nullptr);

  /// The partition used by the last Run (for logging/tests).
  const ShardPlan& last_plan() const { return last_plan_; }

  /// Retry/quarantine accounting of the last Run.
  const FabricReport& last_report() const { return last_report_; }

 private:
  ShardedRunnerOptions options_;
  ShardPlan last_plan_;
  FabricReport last_report_;
};

/// Absolute path of the hs_worker expected next to the current executable
/// (SelfExeDir() + "/hs_worker").
std::string DefaultWorkerCommand();

}  // namespace hs
