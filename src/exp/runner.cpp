#include "exp/runner.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace hs {

namespace {

std::string FmtDouble(double value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

/// (name, value-as-string) pairs shared by the CSV and JSONL sinks. The
/// wall-clock columns (decision_avg_us, decision_max_us) are the only ones
/// that vary between runs of the same binary; CsvSinkOptions can strip them
/// to produce byte-stable, diffable output.
std::vector<std::pair<std::string, std::string>> ResultFields(const SpecResult& row,
                                                              bool include_wallclock) {
  const SimResult& r = row.result;
  std::vector<std::pair<std::string, std::string>> fields;
  fields.emplace_back("spec", row.spec.ToString());
  fields.emplace_back("trace", row.trace_name);
  fields.emplace_back("mechanism", row.spec.mechanism);
  fields.emplace_back("policy", row.spec.policy);
  fields.emplace_back("mix", row.spec.notice_mix);
  fields.emplace_back("preset", row.spec.preset);
  fields.emplace_back("weeks", std::to_string(row.spec.weeks));
  fields.emplace_back("seed", std::to_string(row.spec.seed));
  fields.emplace_back("avg_turnaround_h", FmtDouble(r.avg_turnaround_h));
  fields.emplace_back("rigid_turnaround_h", FmtDouble(r.rigid_turnaround_h));
  fields.emplace_back("malleable_turnaround_h", FmtDouble(r.malleable_turnaround_h));
  fields.emplace_back("od_turnaround_h", FmtDouble(r.od_turnaround_h));
  fields.emplace_back("avg_wait_h", FmtDouble(r.avg_wait_h));
  fields.emplace_back("od_instant_rate", FmtDouble(r.od_instant_rate));
  fields.emplace_back("od_instant_rate_strict", FmtDouble(r.od_instant_rate_strict));
  fields.emplace_back("od_avg_delay_s", FmtDouble(r.od_avg_delay_s));
  fields.emplace_back("rigid_preempt_ratio", FmtDouble(r.rigid_preempt_ratio));
  fields.emplace_back("malleable_preempt_ratio", FmtDouble(r.malleable_preempt_ratio));
  fields.emplace_back("malleable_shrink_ratio", FmtDouble(r.malleable_shrink_ratio));
  fields.emplace_back("utilization", FmtDouble(r.utilization));
  fields.emplace_back("useful_utilization", FmtDouble(r.useful_utilization));
  fields.emplace_back("allocated_utilization", FmtDouble(r.allocated_utilization));
  fields.emplace_back("window_utilization", FmtDouble(r.window_utilization));
  fields.emplace_back("lost_node_hours", FmtDouble(r.lost_node_hours));
  fields.emplace_back("setup_node_hours", FmtDouble(r.setup_node_hours));
  fields.emplace_back("checkpoint_node_hours", FmtDouble(r.checkpoint_node_hours));
  fields.emplace_back("jobs_completed", std::to_string(r.jobs_completed));
  fields.emplace_back("jobs_killed", std::to_string(r.jobs_killed));
  fields.emplace_back("od_jobs", std::to_string(r.od_jobs));
  fields.emplace_back("preemptions", std::to_string(r.preemptions));
  fields.emplace_back("failures", std::to_string(r.failures));
  fields.emplace_back("shrinks", std::to_string(r.shrinks));
  fields.emplace_back("expands", std::to_string(r.expands));
  if (include_wallclock) {
    fields.emplace_back("decision_avg_us", FmtDouble(r.decision_avg_us));
    fields.emplace_back("decision_max_us", FmtDouble(r.decision_max_us));
  }
  fields.emplace_back("decisions", std::to_string(r.decisions));
  fields.emplace_back("makespan_s", std::to_string(r.makespan));
  return fields;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

bool IsNumericField(const std::string& name) {
  return name != "spec" && name != "trace" && name != "mechanism" &&
         name != "policy" && name != "mix" && name != "preset";
}

}  // namespace

CsvResultSink::CsvResultSink(std::ostream& out, CsvSinkOptions options)
    : writer_(out), options_(options) {}

void CsvResultSink::OnResult(std::size_t /*spec_index*/, const SpecResult& row) {
  const auto fields = ResultFields(row, options_.include_wallclock);
  if (!header_written_) {
    std::vector<std::string> header;
    header.reserve(fields.size());
    for (const auto& [name, value] : fields) header.push_back(name);
    writer_.WriteRow(header);
    header_written_ = true;
  }
  std::vector<std::string> values;
  values.reserve(fields.size());
  for (const auto& [name, value] : fields) values.push_back(value);
  writer_.WriteRow(values);
}

void JsonlResultSink::OnResult(std::size_t /*spec_index*/, const SpecResult& row) {
  std::string line = "{";
  bool first = true;
  for (const auto& [name, value] : ResultFields(row, /*include_wallclock=*/true)) {
    if (!first) line += ",";
    first = false;
    line += "\"" + name + "\":";
    if (IsNumericField(name)) {
      line += value;
    } else {
      line += "\"" + JsonEscape(value) + "\"";
    }
  }
  line += "}\n";
  out_ << line;
  out_.flush();
}

TeeResultSink::TeeResultSink(std::vector<ResultSink*> sinks)
    : sinks_(std::move(sinks)) {
  for (const ResultSink* sink : sinks_) {
    if (sink == nullptr) {
      throw std::invalid_argument("TeeResultSink: null sink");
    }
  }
}

void TeeResultSink::OnResult(std::size_t spec_index, const SpecResult& row) {
  for (ResultSink* sink : sinks_) sink->OnResult(spec_index, row);
}

MergingResultSink::MergingResultSink(ResultSink& inner, std::size_t expected_rows)
    : inner_(inner),
      held_(expected_rows),
      seen_(expected_rows, false),
      skipped_(expected_rows, false) {}

void MergingResultSink::OnResult(std::size_t spec_index, const SpecResult& row) {
  if (spec_index >= held_.size()) {
    throw std::out_of_range("MergingResultSink: spec index " +
                            std::to_string(spec_index) + " >= expected " +
                            std::to_string(held_.size()));
  }
  if (seen_[spec_index] || skipped_[spec_index]) {
    throw std::runtime_error("MergingResultSink: duplicate row for spec index " +
                             std::to_string(spec_index));
  }
  seen_[spec_index] = true;
  held_[spec_index] = std::make_unique<SpecResult>(row);
  FlushReady();
}

void MergingResultSink::Skip(std::size_t spec_index) {
  if (spec_index >= held_.size()) {
    throw std::out_of_range("MergingResultSink: spec index " +
                            std::to_string(spec_index) + " >= expected " +
                            std::to_string(held_.size()));
  }
  if (seen_[spec_index]) {
    throw std::runtime_error("MergingResultSink: cannot skip spec index " +
                             std::to_string(spec_index) + ": its row arrived");
  }
  if (skipped_[spec_index]) {
    throw std::runtime_error("MergingResultSink: spec index " +
                             std::to_string(spec_index) + " skipped twice");
  }
  skipped_[spec_index] = true;
  FlushReady();
}

void MergingResultSink::FlushReady() {
  while (next_ < held_.size() && (held_[next_] != nullptr || skipped_[next_])) {
    if (held_[next_] != nullptr) {
      inner_.OnResult(next_, *held_[next_]);
      held_[next_].reset();  // forwarded; only the arrival flag stays
    }
    ++next_;
  }
}

std::vector<std::size_t> MergingResultSink::MissingIndices() const {
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < seen_.size(); ++i) {
    if (!seen_[i] && !skipped_[i]) missing.push_back(i);
  }
  return missing;
}

std::vector<std::size_t> MergingResultSink::SkippedIndices() const {
  std::vector<std::size_t> skipped;
  for (std::size_t i = 0; i < skipped_.size(); ++i) {
    if (skipped_[i]) skipped.push_back(i);
  }
  return skipped;
}

void MergingResultSink::Finish() const {
  const auto missing = MissingIndices();
  if (missing.empty()) return;
  throw std::runtime_error("MergingResultSink: " + std::to_string(missing.size()) +
                           " of " + std::to_string(seen_.size()) +
                           " rows never arrived (spec indices " +
                           FormatIndexList(missing) + ")");
}

std::string FormatIndexList(const std::vector<std::size_t>& indices,
                            std::size_t limit) {
  std::string list;
  for (std::size_t i = 0; i < indices.size() && i < limit; ++i) {
    if (!list.empty()) list += ", ";
    list += std::to_string(indices[i]);
  }
  if (indices.size() > limit) list += ", ...";
  return list;
}

std::vector<SpecResult> ExperimentRunner::Run(const std::vector<SimSpec>& specs,
                                              ResultSink* sink) {
  for (const SimSpec& spec : specs) {
    const std::string error = spec.Validate();
    if (!error.empty()) {
      throw std::invalid_argument("invalid spec '" + spec.ToString() + "': " + error);
    }
  }

  // Build each distinct scenario trace once, in parallel.
  std::map<std::string, std::size_t> trace_index;
  std::vector<const SimSpec*> trace_specs;
  std::vector<std::size_t> spec_to_trace(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string key = specs[i].ScenarioKey();
    const auto [it, inserted] = trace_index.emplace(key, trace_specs.size());
    if (inserted) trace_specs.push_back(&specs[i]);
    spec_to_trace[i] = it->second;
  }
  // Failures (trace build or cell) are collected per index instead of
  // thrown, so one bad cell cannot abort its siblings: every healthy cell
  // still runs and streams to `sink` before Run reports the failure.
  std::vector<std::string> trace_errors(trace_specs.size());
  std::vector<std::shared_ptr<const Trace>> traces(trace_specs.size());
  pool_.ParallelFor(trace_specs.size(), [&](std::size_t t) {
    try {
      traces[t] = std::make_shared<const Trace>(trace_specs[t]->BuildTrace());
    } catch (const std::exception& e) {
      trace_errors[t] = e.what();
    }
  });

  // Run every cell in its own session; stream rows as they complete.
  std::vector<SpecResult> rows(specs.size());
  std::vector<std::string> cell_errors(specs.size());
  pool_.ParallelFor(specs.size(), [&](std::size_t i) {
    const std::string& trace_error = trace_errors[spec_to_trace[i]];
    if (!trace_error.empty()) {
      cell_errors[i] = trace_error;
      return;
    }
    try {
      SimulationSession session(specs[i], traces[spec_to_trace[i]]);
      rows[i] = SpecResult{specs[i], session.trace().name, session.Run()};
    } catch (const std::exception& e) {
      cell_errors[i] = e.what();
      return;
    }
    // Outside the catch: a throwing sink is a consumer bug and propagates
    // as itself, not as a misattributed "spec failed" error.
    if (sink != nullptr) {
      std::lock_guard<std::mutex> lock(sink_mutex_);
      sink->OnResult(i, rows[i]);
    }
  });
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!cell_errors[i].empty()) {
      throw std::runtime_error("spec '" + specs[i].ToString() +
                               "' failed: " + cell_errors[i]);
    }
  }
  return rows;
}

std::vector<SimSpec> SeedSweep(const SimSpec& base, int count, std::uint64_t base_seed) {
  std::vector<SimSpec> specs(static_cast<std::size_t>(std::max(count, 0)), base);
  for (std::size_t i = 0; i < specs.size(); ++i) specs[i].seed = base_seed + i;
  return specs;
}

SimResult MeanResult(const std::vector<SimResult>& results) {
  SimResult mean;
  if (results.empty()) return mean;
  const double n = static_cast<double>(results.size());
  for (const SimResult& r : results) {
    mean.avg_turnaround_h += r.avg_turnaround_h / n;
    mean.rigid_turnaround_h += r.rigid_turnaround_h / n;
    mean.malleable_turnaround_h += r.malleable_turnaround_h / n;
    mean.od_turnaround_h += r.od_turnaround_h / n;
    mean.avg_wait_h += r.avg_wait_h / n;
    mean.od_instant_rate += r.od_instant_rate / n;
    mean.od_instant_rate_strict += r.od_instant_rate_strict / n;
    mean.od_avg_delay_s += r.od_avg_delay_s / n;
    mean.rigid_preempt_ratio += r.rigid_preempt_ratio / n;
    mean.malleable_preempt_ratio += r.malleable_preempt_ratio / n;
    mean.malleable_shrink_ratio += r.malleable_shrink_ratio / n;
    mean.utilization += r.utilization / n;
    mean.useful_utilization += r.useful_utilization / n;
    mean.allocated_utilization += r.allocated_utilization / n;
    mean.window_utilization += r.window_utilization / n;
    mean.lost_node_hours += r.lost_node_hours / n;
    mean.setup_node_hours += r.setup_node_hours / n;
    mean.checkpoint_node_hours += r.checkpoint_node_hours / n;
    mean.jobs_completed += r.jobs_completed;
    mean.jobs_killed += r.jobs_killed;
    mean.od_jobs += r.od_jobs;
    mean.preemptions += r.preemptions;
    mean.failures += r.failures;
    mean.shrinks += r.shrinks;
    mean.expands += r.expands;
    mean.decision_avg_us += r.decision_avg_us / n;
    mean.decision_max_us = std::max(mean.decision_max_us, r.decision_max_us);
    mean.decisions += r.decisions;
    mean.makespan = std::max(mean.makespan, r.makespan);
  }
  return mean;
}

std::vector<SimResult> GroupMeans(const std::vector<SpecResult>& rows,
                                  std::size_t group_size) {
  if (group_size == 0 || rows.size() % group_size != 0) {
    throw std::invalid_argument("GroupMeans: rows not divisible into groups of " +
                                std::to_string(group_size));
  }
  std::vector<SimResult> means;
  means.reserve(rows.size() / group_size);
  for (std::size_t g = 0; g < rows.size(); g += group_size) {
    std::vector<SimResult> slice;
    slice.reserve(group_size);
    for (std::size_t i = 0; i < group_size; ++i) slice.push_back(rows[g + i].result);
    means.push_back(MeanResult(slice));
  }
  return means;
}

}  // namespace hs
