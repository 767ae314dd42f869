// The traced sim harness. It composes Collector, Simulator and
// HybridScheduler itself -- the stack SimulationSession owns -- behind an
// EventHandler that times every call into the scheduler, so a cell's wall
// time splits into session build, the sim loop's own time, the core event
// handlers by kind, the quiescent scheduling pass, finalize and the sink.
// Its rows must equal the production SimulationSession rows; every traced
// workload checks that.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "exp/runner.h"

namespace e2e {

/// Per-layer totals over every traced cell of a run.
struct LayerTotals {
  std::size_t traces = 0;
  double trace_build_s = 0.0;
  double trace_jobs = 0.0;

  std::size_t cells = 0;
  double wall_s = 0.0;  // session build through sink
  double session_build_s = 0.0;
  double run_s = 0.0;  // Simulator::Run
  double handler_s[4] = {0.0, 0.0, 0.0, 0.0};  // submit, finish, notice, other
  double pass_s = 0.0;  // HybridScheduler::OnQuiescent
  double finalize_s = 0.0;
  double sink_s = 0.0;
  LatencyHistogram pass_us;
  LatencyHistogram batch_us;  // first event of a batch to the end of its pass
  double queue_depth_sum = 0.0;
  std::uint64_t queue_samples = 0;
  double decision_max_us = 0.0;
  double decisions = 0.0;  // mechanism decisions, all cells
  std::vector<double> cell_ms;  // per-cell wall
  std::vector<double> run_ms;   // per-cell Simulator::Run

  // Exact counts of the detailed (first) cell.
  std::uint64_t first_events = 0;
  std::uint64_t first_batches = 0;  // distinct event timestamps
  std::uint64_t first_passes = 0;   // OnQuiescent calls

  void AddTrace(double seconds, std::size_t jobs) {
    ++traces;
    trace_build_s += seconds;
    trace_jobs += static_cast<double>(jobs);
  }
  /// Folds another thread's totals in.
  void Merge(const LayerTotals& other);
};

/// Runs `spec` on `trace` through the traced stack up to `until`, streams
/// the row to `sink` as `index`, and adds its layer times to `totals`.
/// Phase spans nest under `log`'s open span. The `detail` cell (keep it to
/// one: it bounds memory) also gets a span per batch, event and pass, and
/// sets the first_* counts.
hs::SpecResult RunTracedCell(const hs::SimSpec& spec,
                             const std::shared_ptr<const hs::Trace>& trace,
                             hs::ResultSink& sink, std::size_t index,
                             LayerTotals& totals, SpanLog& log, bool detail,
                             hs::SimTime until = hs::kNever);

/// Adds the sim-side per-layer metrics (workload.*, sim.*, core.*,
/// sched.*, metrics.*, exp.session_build_ms, exp.sink_ms,
/// trace.reconcile_gap) of `totals` to `report`, and checks that the layer
/// self times reconcile with the traced wall.
void ReportLayers(const LayerTotals& totals, Report& report);

}  // namespace e2e
