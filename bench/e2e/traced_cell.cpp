#include "traced_cell.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/hybrid_scheduler.h"
#include "metrics/collector.h"
#include "sim/simulator.h"

namespace e2e {

namespace {

/// core.* slot of an event kind: submit, finish, notice, everything else.
int KindSlot(hs::EventKind kind) {
  switch (kind) {
    case hs::EventKind::kJobSubmit: return 0;
    case hs::EventKind::kJobFinish: return 1;
    case hs::EventKind::kAdvanceNotice: return 2;
    default: return 3;
  }
}

/// Forwards every event and quiescent callback to the scheduler, timing
/// each call. A batch is the run of HandleEvent calls up to the
/// OnQuiescent that closes it.
class TimingHandler final : public hs::EventHandler {
 public:
  TimingHandler(LayerTotals& totals, SpanLog* detail) : totals_(totals), detail_(detail) {}

  void Bind(hs::HybridScheduler& sched, int run_span) {
    sched_ = &sched;
    run_span_ = run_span;
  }

  void HandleEvent(const hs::Event& event, hs::Simulator& sim) override {
    const Clock::time_point t0 = Clock::now();
    if (!in_batch_) {
      in_batch_ = true;
      batch_start_ = t0;
      if (events_ == 0 || event.time != last_time_) ++batches_;
      last_time_ = event.time;
    }
    sched_->HandleEvent(event, sim);
    const Clock::time_point t1 = Clock::now();
    totals_.handler_s[KindSlot(event.kind)] += Seconds(t1 - t0);
    ++events_;
    if (detail_ != nullptr) batch_events_.push_back({event.kind, t0, t1});
  }

  void OnQuiescent(hs::SimTime now, hs::Simulator& sim) override {
    totals_.queue_depth_sum += static_cast<double>(sched_->engine().queue().size());
    ++totals_.queue_samples;
    const Clock::time_point t0 = Clock::now();
    sched_->OnQuiescent(now, sim);
    const Clock::time_point t1 = Clock::now();
    totals_.pass_s += Seconds(t1 - t0);
    totals_.pass_us.Add(Seconds(t1 - t0) * 1e6);
    totals_.batch_us.Add(Seconds(t1 - batch_start_) * 1e6);
    ++passes_;
    in_batch_ = false;
    if (detail_ != nullptr) {
      const int batch = detail_->Add("batch", batch_start_, t1, run_span_);
      for (const BatchEvent& e : batch_events_) {
        detail_->Add(hs::ToString(e.kind), e.start, e.end, batch);
      }
      detail_->Add("pass", t0, t1, batch);
      batch_events_.clear();
    }
  }

  std::uint64_t events() const { return events_; }
  std::uint64_t batches() const { return batches_; }
  std::uint64_t passes() const { return passes_; }

 private:
  struct BatchEvent {
    hs::EventKind kind;
    Clock::time_point start;
    Clock::time_point end;
  };

  LayerTotals& totals_;
  SpanLog* detail_;
  hs::HybridScheduler* sched_ = nullptr;
  int run_span_ = -1;
  bool in_batch_ = false;
  Clock::time_point batch_start_;
  hs::SimTime last_time_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t passes_ = 0;
  std::vector<BatchEvent> batch_events_;
};

double SpanSeconds(const SpanLog& log, int id) {
  const Span& span = log.spans()[static_cast<std::size_t>(id)];
  return Seconds(span.end - span.start);
}

}  // namespace

void LayerTotals::Merge(const LayerTotals& o) {
  traces += o.traces;
  trace_build_s += o.trace_build_s;
  trace_jobs += o.trace_jobs;
  cells += o.cells;
  wall_s += o.wall_s;
  session_build_s += o.session_build_s;
  run_s += o.run_s;
  for (int k = 0; k < 4; ++k) handler_s[k] += o.handler_s[k];
  pass_s += o.pass_s;
  finalize_s += o.finalize_s;
  sink_s += o.sink_s;
  pass_us.Merge(o.pass_us);
  batch_us.Merge(o.batch_us);
  queue_depth_sum += o.queue_depth_sum;
  queue_samples += o.queue_samples;
  decision_max_us = std::max(decision_max_us, o.decision_max_us);
  decisions += o.decisions;
  cell_ms.insert(cell_ms.end(), o.cell_ms.begin(), o.cell_ms.end());
  run_ms.insert(run_ms.end(), o.run_ms.begin(), o.run_ms.end());
  if (o.first_events != 0) {
    first_events = o.first_events;
    first_batches = o.first_batches;
    first_passes = o.first_passes;
  }
}

hs::SpecResult RunTracedCell(const hs::SimSpec& spec,
                             const std::shared_ptr<const hs::Trace>& trace,
                             hs::ResultSink& sink, std::size_t index,
                             LayerTotals& totals, SpanLog& log, bool detail,
                             hs::SimTime until) {
  const Clock::time_point start = Clock::now();
  const int build = log.Begin("session_build");
  const hs::HybridConfig config = spec.BuildConfig();
  const std::string error = config.Validate();
  if (!error.empty()) {
    throw std::invalid_argument("invalid config from spec '" + spec.ToString() + "': " + error);
  }
  hs::Collector collector(config.instant_threshold);
  TimingHandler handler(totals, detail ? &log : nullptr);
  hs::Simulator sim(handler);
  hs::HybridScheduler sched(*trace, config, collector, sim);
  sched.Prime();
  log.End(build);

  const int run = log.Begin("run");
  handler.Bind(sched, run);
  sim.Run(until);
  log.End(run);

  const int finalize = log.Begin("finalize");
  hs::SimResult result = collector.Finalize(trace->num_nodes,
                                            sched.engine().cluster().busy_node_seconds());
  result.window_utilization = sched.utilization_tracker().MeanBusyFraction(
      trace->FirstSubmit(), trace->LastSubmit());
  hs::SpecResult row{spec, trace->name, result};
  log.End(finalize);

  const int sink_span = log.Begin("sink");
  sink.OnResult(index, row);
  log.End(sink_span);
  const double wall = Since(start);

  if (detail) {
    totals.first_events = handler.events();
    totals.first_batches = handler.batches();
    totals.first_passes = handler.passes();
  }
  ++totals.cells;
  totals.wall_s += wall;
  totals.session_build_s += SpanSeconds(log, build);
  totals.run_s += SpanSeconds(log, run);
  totals.finalize_s += SpanSeconds(log, finalize);
  totals.sink_s += SpanSeconds(log, sink_span);
  totals.decision_max_us = std::max(totals.decision_max_us, result.decision_max_us);
  totals.decisions += static_cast<double>(result.decisions);
  totals.cell_ms.push_back(wall * 1e3);
  totals.run_ms.push_back(SpanSeconds(log, run) * 1e3);
  return row;
}

void ReportLayers(const LayerTotals& t, Report& report) {
  const double cells = static_cast<double>(std::max<std::size_t>(t.cells, 1));
  const double per_cell_ms = 1e3 / cells;
  const double handlers = t.handler_s[0] + t.handler_s[1] + t.handler_s[2] + t.handler_s[3];
  report.Metric("workload.trace_build_ms",
                t.traces ? t.trace_build_s / static_cast<double>(t.traces) * 1e3 : 0.0, "ms");
  report.Metric("workload.jobs", t.traces ? t.trace_jobs / static_cast<double>(t.traces) : 0.0,
                "count");
  report.Metric("sim.events", static_cast<double>(t.first_events), "count");
  report.Metric("sim.batches", static_cast<double>(t.first_batches), "count");
  report.Metric("sim.loop_self_ms", (t.run_s - handlers - t.pass_s) * per_cell_ms, "ms");
  report.Metric("core.submit_ms", t.handler_s[0] * per_cell_ms, "ms");
  report.Metric("core.finish_ms", t.handler_s[1] * per_cell_ms, "ms");
  report.Metric("core.notice_ms", t.handler_s[2] * per_cell_ms, "ms");
  report.Metric("core.other_ms", t.handler_s[3] * per_cell_ms, "ms");
  report.Metric("core.decisions", t.decisions / cells, "count");
  report.Metric("core.decision_max_us", t.decision_max_us, "us");
  report.Metric("sched.pass_self_ms", t.pass_s * per_cell_ms, "ms");
  report.Metric("sched.pass_calls", static_cast<double>(t.first_passes), "count");
  report.Metric("sched.pass_p50_us", t.pass_us.Quantile(0.50), "us");
  report.Metric("sched.pass_p99_us", t.pass_us.Quantile(0.99), "us");
  report.Metric("sched.pass_share", t.wall_s > 0 ? t.pass_s / t.wall_s : 0.0, "ratio");
  report.Metric("sched.queue_depth_mean",
                t.queue_samples ? t.queue_depth_sum / static_cast<double>(t.queue_samples) : 0.0,
                "jobs");
  report.Metric("sched.batch_p99_us", t.batch_us.Quantile(0.99), "us");
  report.Metric("sched.batch_p999_us", t.batch_us.Quantile(0.999), "us");
  report.Metric("metrics.finalize_ms", t.finalize_s * per_cell_ms, "ms");
  report.Metric("exp.session_build_ms", t.session_build_s * per_cell_ms, "ms");
  report.Metric("exp.sink_ms", t.sink_s * per_cell_ms, "ms");

  // Every layer's self time: loop self + handlers + pass = run, so the sum
  // is build + run + finalize + sink; the gap is untimed glue.
  const double layers = t.session_build_s + t.run_s + t.finalize_s + t.sink_s;
  const double gap = t.wall_s > 0 ? 1.0 - layers / t.wall_s : 1.0;
  report.Metric("trace.reconcile_gap", gap, "ratio");
  report.Check("reconcile", std::fabs(gap) <= 0.05,
               "layer self times cover " + std::to_string(100.0 * (1.0 - gap)) +
                   "% of the traced wall");
}

}  // namespace e2e
