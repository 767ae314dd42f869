// Metrics collection (§IV-D).
//
// The collector observes every lifecycle transition the scheduler makes and
// produces the paper's user- and system-level metrics:
//   1. job turnaround time (overall and per class),
//   2. on-demand instant-start rate,
//   3. preemption ratio (rigid / malleable),
//   4. system utilization (useful node-hours over elapsed node-hours,
//      excluding computation wasted by preemption, setup and checkpoints).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <variant>

#include "util/stats.h"
#include "util/time.h"
#include "workload/job.h"

namespace hs {

enum class PreemptKind : std::uint8_t {
  kArrivalKill = 0,     // PAA: killed at on-demand arrival
  kDrained = 1,         // malleable warned and handed its nodes over
  kPlanned = 2,         // CUP: preempted ahead of the predicted arrival
  kBackfillKill = 3,    // tenant killed when the reservation owner arrived
  kFailure = 4,         // hardware failure (failure-injection extension);
                        // counted separately from scheduler preemptions
};

struct SimResult {
  // User-level (hours).
  double avg_turnaround_h = 0.0;
  double rigid_turnaround_h = 0.0;
  double malleable_turnaround_h = 0.0;
  double od_turnaround_h = 0.0;
  double avg_wait_h = 0.0;

  // On-demand responsiveness.
  double od_instant_rate = 0.0;         // delay <= instant threshold
  double od_instant_rate_strict = 0.0;  // delay == 0
  double od_avg_delay_s = 0.0;

  // Preemption ratios (distinct jobs preempted / jobs of that class).
  double rigid_preempt_ratio = 0.0;
  double malleable_preempt_ratio = 0.0;
  double malleable_shrink_ratio = 0.0;

  // System-level. `utilization` follows the paper's definition: node-hours
  // used for job execution minus computation wasted by preemption, over
  // elapsed node-hours. `useful_utilization` is stricter (also excludes
  // setup and checkpoint overhead); `allocated_utilization` counts every
  // allocated node-hour.
  double utilization = 0.0;
  double useful_utilization = 0.0;
  double allocated_utilization = 0.0;
  /// Mean busy fraction over the submission window only (first..last
  /// submit), excluding the drain tail; set by RunSimulation.
  double window_utilization = 0.0;
  double lost_node_hours = 0.0;        // discarded computation
  double setup_node_hours = 0.0;
  double checkpoint_node_hours = 0.0;

  // Volume counters.
  std::size_t jobs_completed = 0;
  std::size_t jobs_killed = 0;
  std::size_t od_jobs = 0;
  std::size_t preemptions = 0;  // scheduler-induced (excludes failures)
  std::size_t failures = 0;     // hardware-failure interruptions
  std::size_t shrinks = 0;
  std::size_t expands = 0;

  // Scheduling-decision wall-clock cost (Observation 10).
  double decision_avg_us = 0.0;
  double decision_max_us = 0.0;
  std::size_t decisions = 0;

  SimTime makespan = 0;  // first submit .. last completion
};

/// How MeanResult folds one field over per-seed results.
enum class FieldReduce : std::uint8_t {
  kMean,  // mean += x / n, in seed order
  kSum,   // counters accumulate
  kMax,   // maxima take the max
};

/// One SimResult member. kResultFields lists every member once, in CSV
/// column order; the CSV sink, MeanResult, the fabric's row frames and the
/// test oracles all loop over it, so a new metric is one member plus one
/// table row.
struct ResultField {
  using Member = std::variant<double SimResult::*, std::size_t SimResult::*,
                              SimTime SimResult::*>;
  const char* name;  // CSV column and row-frame key
  Member member;
  FieldReduce reduce;
  bool wallclock;  // differs between two runs of one binary
};

inline constexpr ResultField kResultFields[] = {
    {"avg_turnaround_h", &SimResult::avg_turnaround_h, FieldReduce::kMean, false},
    {"rigid_turnaround_h", &SimResult::rigid_turnaround_h, FieldReduce::kMean, false},
    {"malleable_turnaround_h", &SimResult::malleable_turnaround_h, FieldReduce::kMean,
     false},
    {"od_turnaround_h", &SimResult::od_turnaround_h, FieldReduce::kMean, false},
    {"avg_wait_h", &SimResult::avg_wait_h, FieldReduce::kMean, false},
    {"od_instant_rate", &SimResult::od_instant_rate, FieldReduce::kMean, false},
    {"od_instant_rate_strict", &SimResult::od_instant_rate_strict, FieldReduce::kMean,
     false},
    {"od_avg_delay_s", &SimResult::od_avg_delay_s, FieldReduce::kMean, false},
    {"rigid_preempt_ratio", &SimResult::rigid_preempt_ratio, FieldReduce::kMean, false},
    {"malleable_preempt_ratio", &SimResult::malleable_preempt_ratio, FieldReduce::kMean,
     false},
    {"malleable_shrink_ratio", &SimResult::malleable_shrink_ratio, FieldReduce::kMean,
     false},
    {"utilization", &SimResult::utilization, FieldReduce::kMean, false},
    {"useful_utilization", &SimResult::useful_utilization, FieldReduce::kMean, false},
    {"allocated_utilization", &SimResult::allocated_utilization, FieldReduce::kMean,
     false},
    {"window_utilization", &SimResult::window_utilization, FieldReduce::kMean, false},
    {"lost_node_hours", &SimResult::lost_node_hours, FieldReduce::kMean, false},
    {"setup_node_hours", &SimResult::setup_node_hours, FieldReduce::kMean, false},
    {"checkpoint_node_hours", &SimResult::checkpoint_node_hours, FieldReduce::kMean,
     false},
    {"jobs_completed", &SimResult::jobs_completed, FieldReduce::kSum, false},
    {"jobs_killed", &SimResult::jobs_killed, FieldReduce::kSum, false},
    {"od_jobs", &SimResult::od_jobs, FieldReduce::kSum, false},
    {"preemptions", &SimResult::preemptions, FieldReduce::kSum, false},
    {"failures", &SimResult::failures, FieldReduce::kSum, false},
    {"shrinks", &SimResult::shrinks, FieldReduce::kSum, false},
    {"expands", &SimResult::expands, FieldReduce::kSum, false},
    {"decision_avg_us", &SimResult::decision_avg_us, FieldReduce::kMean, true},
    {"decision_max_us", &SimResult::decision_max_us, FieldReduce::kMax, true},
    {"decisions", &SimResult::decisions, FieldReduce::kSum, false},
    {"makespan_s", &SimResult::makespan, FieldReduce::kMax, false},
};

/// `field` of `r` as text: doubles through `fmt_double`, counters and
/// makespan in decimal.
template <class FmtDouble>
std::string FieldText(const SimResult& r, const ResultField& field, FmtDouble fmt_double) {
  return std::visit(
      [&](auto member) -> std::string {
        if constexpr (std::is_same_v<decltype(r.*member), const double&>) {
          return fmt_double(r.*member);
        } else {
          return std::to_string(r.*member);
        }
      },
      field.member);
}

/// Every field of `r` as space-separated `name=value` tokens in table
/// order: doubles at 17 significant digits (bit-exact through ParseDouble),
/// counters and makespan as integers. Wall-clock fields only when
/// `include_wallclock`. The fabric's row frames carry this text, and tests
/// compare results through it.
std::string FormatResultExact(const SimResult& r, bool include_wallclock);

class Collector {
 public:
  /// `instant_threshold`: an on-demand start within this delay counts as
  /// "instant" (default tolerates the 2-minute drain warning; see DESIGN.md).
  explicit Collector(SimTime instant_threshold = 5 * kMinute)
      : instant_threshold_(instant_threshold) {}

  void OnSubmit(const JobRecord& job, SimTime now);
  void OnStart(const JobRecord& job, SimTime now, int alloc, bool is_restart);
  void OnFinish(const JobRecord& job, SimTime now);
  /// `lost_node_seconds`: computation discarded because the job hit its
  /// runtime-estimate limit.
  void OnKill(const JobRecord& job, SimTime now, double lost_node_seconds = 0.0);
  void OnPreempt(const JobRecord& job, SimTime now, double lost_node_seconds,
                 PreemptKind kind);
  void OnShrink(const JobRecord& job, SimTime now, int from_alloc, int to_alloc);
  void OnExpand(const JobRecord& job, SimTime now, int from_alloc, int to_alloc);
  /// Setup node-seconds actually consumed by an execution (charged when the
  /// execution stops, so mid-setup preemptions are charged pro-rata).
  void OnSetupPaid(const JobRecord& job, double node_seconds);
  void OnCheckpointOverhead(const JobRecord& job, double node_seconds);
  /// Wall-clock cost of one mechanism decision, in microseconds.
  void OnDecision(double micros);

  /// Finalizes against the machine: `busy_node_seconds` is the allocation
  /// integral from the cluster, `num_nodes` the machine size.
  SimResult Finalize(int num_nodes, double busy_node_seconds) const;

  /// Per-job lifecycle timestamps as observed so far (kNever = not yet).
  struct JobTimes {
    SimTime first_submit = kNever;
    SimTime first_start = kNever;
    SimTime completion = kNever;
    bool preempted = false;
    bool killed = false;
  };

  /// Lifecycle view of one job; nullopt before its first submit event.
  /// The query-job / what-if probe-start detection hook.
  std::optional<JobTimes> Times(JobId id) const {
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return std::nullopt;
    return JobTimes{it->second.first_submit, it->second.first_start,
                    it->second.completion, it->second.preempted,
                    it->second.killed};
  }

  SimTime instant_threshold() const { return instant_threshold_; }

 private:
  struct PerJob {
    SimTime first_submit = kNever;
    SimTime first_start = kNever;
    SimTime completion = kNever;
    bool preempted = false;
    bool shrunk = false;
    bool killed = false;
    JobClass klass = JobClass::kRigid;
  };

  SimTime instant_threshold_;
  std::unordered_map<JobId, PerJob> jobs_;
  double lost_node_seconds_ = 0.0;
  double setup_node_seconds_ = 0.0;
  double checkpoint_node_seconds_ = 0.0;
  double useful_node_seconds_ = 0.0;
  std::size_t preemptions_ = 0;
  std::size_t failures_ = 0;
  std::size_t shrinks_ = 0;
  std::size_t expands_ = 0;
  RunningStats decision_us_;
  SimTime first_submit_ = kNever;
  SimTime last_completion_ = 0;
};

}  // namespace hs
