#include "exp/sharded_runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <thread>
#include <utility>

#include "exp/shard_io.h"
#include "exp/transport.h"
#include "util/rng.h"
#include "util/subprocess.h"

namespace hs {

namespace {

using Clock = std::chrono::steady_clock;

/// Deterministic backoff before attempt `next_attempt` (>= 2) of a unit
/// from `origin` shard: exponential with seed-derived jitter.
double BackoffSeconds(const RetryPolicy& policy, std::size_t origin, int next_attempt) {
  if (policy.backoff_initial_s <= 0.0) return 0.0;
  double base = policy.backoff_initial_s *
                std::pow(policy.backoff_multiplier,
                         std::max(0, next_attempt - 2));
  base = std::min(base, policy.backoff_max_s);
  if (policy.jitter_frac <= 0.0) return base;
  std::uint64_t state = policy.jitter_seed ^
                        (static_cast<std::uint64_t>(origin) * 0x9E3779B97F4A7C15ull) ^
                        static_cast<std::uint64_t>(next_attempt);
  const double unit = static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
  return base * (1.0 + policy.jitter_frac * unit);
}

/// One re-scatterable piece of work: a subset of spec indices descended
/// from one original plan shard, with its attempt budget consumed so far.
struct WorkUnit {
  std::size_t origin_shard = 0;
  std::vector<std::size_t> indices;
  int attempts_used = 0;
  Clock::time_point ready_at;  // backoff gate
  /// Dispatch failures (dead host, refused connection) that never reached
  /// an executor — these do not consume retry attempts, only patience.
  int infra_failures = 0;
};

/// One launched unit in flight on some transport slot.
struct Running {
  WorkUnit unit;
  std::unique_ptr<TransportTask> task;
  Clock::time_point last_activity;
  std::uint64_t last_bytes = 0;
  bool hang_killed = false;
};

}  // namespace

std::string DefaultWorkerCommand() {
  const std::string dir = SelfExeDir();
  return dir.empty() ? std::string("hs_worker") : dir + "/hs_worker";
}

std::string FabricReport::Summary() const {
  std::string out;
  if (!transport.empty()) out += "fabric: transport: " + transport + "\n";
  out += "fabric: " + std::to_string(shard_count) + " shards, " +
         std::to_string(workers_launched) + " worker launches (" +
         std::to_string(retries) + " retries, " + std::to_string(bisections) +
         " bisections, " + std::to_string(hang_kills) + " hang kills)\n";
  out += "fabric: cells: " + std::to_string(rows_merged) + " merged useful, " +
         std::to_string(wasted_cells()) + " wasted of " +
         std::to_string(cells_scattered) + " scattered; " +
         std::to_string(quarantined.size()) + " quarantined\n";
  if (conn_failures > 0) {
    out += "fabric: " + std::to_string(conn_failures) +
           " connection failures routed around\n";
  }
  std::string per_shard;
  for (std::size_t k = 0; k < launches_per_shard.size(); ++k) {
    if (!per_shard.empty()) per_shard += ", ";
    per_shard += "shard " + std::to_string(k) + ": " +
                 std::to_string(launches_per_shard[k]);
  }
  if (!per_shard.empty()) out += "fabric: launches by shard: " + per_shard + "\n";
  for (const FabricCellError& cell : quarantined) {
    std::string reason = cell.reason;
    constexpr std::size_t kMax = 300;
    if (reason.size() > kMax) reason = reason.substr(0, kMax) + "...";
    std::replace(reason.begin(), reason.end(), '\n', ' ');
    out += "fabric: quarantined cell " + std::to_string(cell.spec_index) + " ('" +
           cell.spec + "'): " + reason + "\n";
  }
  return out;
}

ShardedRunner::ShardedRunner(ShardedRunnerOptions options)
    : options_(std::move(options)) {}

std::vector<SpecResult> ShardedRunner::Run(const std::vector<SimSpec>& specs,
                                           ResultSink* sink) {
  for (const SimSpec& spec : specs) {
    const std::string error = spec.Validate();
    if (!error.empty()) {
      throw std::invalid_argument("invalid spec '" + spec.ToString() + "': " + error);
    }
  }
  if (options_.retry.max_attempts < 1) {
    throw std::invalid_argument("ShardedRunner: retry.max_attempts must be >= 1");
  }
  last_plan_ = MakeShardPlan(specs, options_.shards);
  last_report_ = FabricReport{};
  last_report_.shard_count = last_plan_.shard_count();
  last_report_.launches_per_shard.assign(last_plan_.shard_count(), 0);
  if (specs.empty()) return {};

  const std::string worker =
      options_.worker_cmd.empty() ? DefaultWorkerCommand() : options_.worker_cmd;

  // Pick the transport: empty --hosts keeps the local fork/exec path (one
  // slot per plan shard); otherwise every unit travels to an hs_agent over
  // TCP.
  std::unique_ptr<Transport> transport;
  if (options_.hosts.empty()) {
    transport = std::make_unique<LocalExecTransport>(worker, options_.worker_threads,
                                                     last_plan_.shard_count());
  } else {
    TcpTransportOptions tcp;
    tcp.worker_threads = options_.worker_threads;
    tcp.connect_timeout_s = options_.connect_timeout_s;
    transport = std::make_unique<TcpTransport>(ParseHostList(options_.hosts), tcp);
  }
  last_report_.transport = transport->Describe();

  // --- the work-stealing scatter/gather loop ---------------------------------
  //
  // Pending units wait out their backoff and are drained by whichever
  // transport slot is idle first (dynamic dispatch — a fast host simply
  // takes more units). Every exit (clean, crashed, hang-killed, or a dead
  // connection) is gathered tolerantly: rows already received are kept,
  // only the missing indices are re-scattered. A dispatch that never
  // reached an executor (dead host) re-queues the unit without consuming a
  // retry attempt. A unit that exhausts its attempts is bisected until the
  // poison cell is isolated, then quarantined (best_effort) or thrown.
  std::deque<WorkUnit> pending;
  for (std::size_t k = 0; k < last_plan_.shard_count(); ++k) {
    pending.push_back(WorkUnit{k, last_plan_.shards[k], 0, Clock::now()});
  }
  std::deque<Running> running;
  std::vector<std::unique_ptr<SpecResult>> collected(specs.size());
  const std::size_t max_parallel = std::max<std::size_t>(1, transport->slots());
  const double poll_s = std::max(0.001, options_.poll_interval_s);
  // Consecutive dispatch failures per slot before a slot counts as dead;
  // the run only gives up when EVERY slot is dead (a unit bouncing off one
  // dead host is fine — it will land on a live one when that frees up).
  constexpr std::size_t kDeadSlotThreshold = 5;

  // Gathers one finished launch; returns when its unit completed and
  // enqueues follow-up work (retry / bisect / quarantine) otherwise.
  // Throws on wire-format skew, on an unreachable fabric, and on terminal
  // failure in fail-fast mode.
  const auto handle_exit = [&](Running& launch) {
    WorkUnit& unit = launch.unit;
    const TransportOutcome outcome = launch.task->Take();
    const std::string shard_name = "shard " + std::to_string(unit.origin_shard);

    if (outcome.infrastructure) {
      // Never reached an executor: nothing ran, so no attempt was consumed
      // and no worker/cell accounting sticks. Route around the dead host.
      last_report_.conn_failures += 1;
      last_report_.workers_launched -= 1;
      last_report_.cells_scattered -= unit.indices.size();
      last_report_.launches_per_shard[unit.origin_shard] -= 1;
      unit.infra_failures += 1;
      if (transport->AllSlotsDead(kDeadSlotThreshold)) {
        throw std::runtime_error(shard_name + " could not be dispatched after " +
                                 std::to_string(unit.infra_failures) +
                                 " connection attempts — every agent is "
                                 "unreachable; last error: " +
                                 outcome.status);
      }
      const double pause = std::max(0.01, options_.retry.backoff_initial_s);
      WorkUnit requeued = std::move(unit);
      requeued.ready_at = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(pause));
      pending.push_back(std::move(requeued));
      return;
    }

    unit.attempts_used += 1;
    std::vector<bool> assigned_here(specs.size(), false);
    for (const std::size_t index : unit.indices) assigned_here[index] = true;
    std::vector<bool> returned_here(specs.size(), false);
    for (const IndexedSpecResult& row : outcome.rows) {
      if (row.index >= specs.size()) {
        throw std::runtime_error(shard_name + " returned out-of-range spec index " +
                                 std::to_string(row.index));
      }
      if (!assigned_here[row.index]) {
        throw std::runtime_error(shard_name + " returned spec index " +
                                 std::to_string(row.index) +
                                 " that was never assigned to it");
      }
      if (returned_here[row.index]) {
        throw std::runtime_error(shard_name + " returned spec index " +
                                 std::to_string(row.index) + " twice");
      }
      returned_here[row.index] = true;
      if (!(row.row.spec == specs[row.index])) {
        throw std::runtime_error(
            shard_name + " returned spec '" + row.row.spec.ToString() +
            "' for index " + std::to_string(row.index) +
            " where the plan scattered '" + specs[row.index].ToString() +
            "' (shard text / worker version skew?)");
      }
      // Keep every gathered row, even from a failed attempt: resume is
      // exact, the retry covers only what is still missing.
      collected[row.index] = std::make_unique<SpecResult>(row.row);
    }

    std::vector<std::size_t> missing;
    for (const std::size_t index : unit.indices) {
      if (!returned_here[index]) missing.push_back(index);
    }
    if (missing.empty()) return;  // unit complete (exit status is moot: data is)

    // Describe this failure once; retries, quarantine records, and the
    // fail-fast error all reuse it.
    std::string why;
    if (launch.hang_killed) {
      why = "hang timeout: no output activity for " +
            std::to_string(options_.shard_timeout_s) + "s (killed)";
    } else if (!outcome.clean) {
      why = outcome.status;
    } else if (outcome.torn_final_line) {
      why = "torn final result line (worker killed mid-write); dropped " +
            std::to_string(missing.size()) + " of " +
            std::to_string(unit.indices.size()) + " assigned rows (spec indices " +
            FormatIndexList(missing) + ")";
    } else {
      why = "dropped " + std::to_string(missing.size()) + " of " +
            std::to_string(unit.indices.size()) + " assigned rows (spec indices " +
            FormatIndexList(missing) + ")";
    }

    if (unit.attempts_used < options_.retry.max_attempts) {
      // Retry: re-scatter only the missing indices after backoff.
      const double backoff =
          BackoffSeconds(options_.retry, unit.origin_shard, unit.attempts_used + 1);
      pending.push_back(WorkUnit{
          unit.origin_shard, std::move(missing), unit.attempts_used,
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(backoff))});
      last_report_.retries += 1;
      return;
    }

    // Attempt budget exhausted.
    const bool isolate = missing.size() > 1 &&
                         (options_.retry.max_attempts > 1 || options_.best_effort);
    if (isolate) {
      // Bisect to find which cell(s) actually poison the unit; halves get
      // a fresh budget (the tree is log-deep, so total work stays bounded).
      const std::size_t half = missing.size() / 2;
      std::vector<std::size_t> lo(missing.begin(), missing.begin() + half);
      std::vector<std::size_t> hi(missing.begin() + half, missing.end());
      pending.push_back(WorkUnit{unit.origin_shard, std::move(lo), 0, Clock::now()});
      pending.push_back(WorkUnit{unit.origin_shard, std::move(hi), 0, Clock::now()});
      last_report_.bisections += 1;
      return;
    }
    if (options_.best_effort) {
      for (const std::size_t index : missing) {
        last_report_.quarantined.push_back(
            FabricCellError{index, specs[index].ToString(), why});
      }
      return;
    }
    // Fail fast, naming the shard — and the isolated poison cell when
    // bisection narrowed it down to one.
    std::string message = shard_name + " " + why;
    if (missing.size() == 1) {
      message += " — isolated poison cell: spec index " + std::to_string(missing[0]) +
                 " ('" + specs[missing[0]].ToString() + "')";
    }
    if (unit.attempts_used > 1) {
      message += " [after " + std::to_string(unit.attempts_used) + " attempts]";
    }
    throw std::runtime_error(message);
  };

  try {
    while (!pending.empty() || !running.empty()) {
      const Clock::time_point now = Clock::now();
      bool progressed = false;

      // Dispatch every pending unit whose backoff elapsed, capacity
      // allowing — units go to whichever slot the transport has idle.
      for (std::size_t i = 0; i < pending.size() && running.size() < max_parallel;) {
        if (pending[i].ready_at > now) {
          ++i;
          continue;
        }
        WorkUnit unit = std::move(pending[i]);
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
        last_report_.workers_launched += 1;
        last_report_.cells_scattered += unit.indices.size();
        last_report_.launches_per_shard[unit.origin_shard] += 1;
        Running launch;
        launch.task = transport->Launch(unit.indices, specs, unit.origin_shard,
                                        unit.attempts_used + 1);
        launch.unit = std::move(unit);
        launch.last_activity = Clock::now();
        launch.last_bytes = 0;
        running.push_back(std::move(launch));
        progressed = true;
      }

      // Reap finished units; watch the rest for output stalls.
      for (std::size_t i = 0; i < running.size();) {
        Running& launch = running[i];
        if (launch.task->Poll()) {
          Running done = std::move(launch);
          running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
          handle_exit(done);
          progressed = true;
          continue;
        }
        if (options_.shard_timeout_s > 0.0 && !launch.hang_killed) {
          const std::uint64_t bytes = launch.task->activity();
          if (bytes != launch.last_bytes) {
            launch.last_bytes = bytes;
            launch.last_activity = now;
          } else if (now - launch.last_activity >
                     std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options_.shard_timeout_s))) {
            launch.task->Kill();  // the next Poll() observes the kill
            launch.hang_killed = true;
            last_report_.hang_kills += 1;
          }
        }
        ++i;
      }

      if (!progressed) {
        std::this_thread::sleep_for(std::chrono::duration<double>(poll_s));
      }
    }
  } catch (...) {
    // Stop every still-running unit before surfacing the failure — no
    // zombies.
    for (Running& launch : running) launch.task->Kill();
    throw;
  }

  std::sort(last_report_.quarantined.begin(), last_report_.quarantined.end(),
            [](const FabricCellError& a, const FabricCellError& b) {
              return a.spec_index < b.spec_index;
            });

  // Merge: healthy rows flow to the sink in canonical spec order;
  // quarantined indices are simply absent (the report names them).
  std::vector<bool> quarantined_index(specs.size(), false);
  for (const FabricCellError& cell : last_report_.quarantined) {
    quarantined_index[cell.spec_index] = true;
  }
  std::vector<SpecResult> rows(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (collected[i] == nullptr) {
      if (!quarantined_index[i]) {
        throw std::runtime_error("ShardedRunner: internal accounting error: spec index " +
                                 std::to_string(i) +
                                 " neither gathered nor quarantined");
      }
      continue;
    }
    rows[i] = *collected[i];
    if (sink != nullptr) sink->OnResult(i, rows[i]);
    last_report_.rows_merged += 1;
  }
  return rows;
}

}  // namespace hs
