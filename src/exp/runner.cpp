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

/// The spec columns every CSV row starts with; kResultFields follow.
constexpr const char* kSpecColumns[] = {"spec", "trace",  "mechanism", "policy",
                                        "mix",  "preset", "weeks",     "seed"};

}  // namespace

CsvResultSink::CsvResultSink(std::ostream& out, CsvSinkOptions options)
    : writer_(out), options_(options) {}

void CsvResultSink::OnResult(std::size_t /*spec_index*/, const SpecResult& row) {
  const auto keep = [&](const ResultField& field) {
    return options_.include_wallclock || !field.wallclock;
  };
  if (!header_written_) {
    std::vector<std::string> header(std::begin(kSpecColumns), std::end(kSpecColumns));
    for (const ResultField& field : kResultFields) {
      if (keep(field)) header.emplace_back(field.name);
    }
    writer_.WriteRow(header);
    header_written_ = true;
  }
  const SimSpec& spec = row.spec;
  std::vector<std::string> values = {spec.ToString(),
                                     row.trace_name,
                                     spec.mechanism,
                                     spec.policy,
                                     spec.notice_mix,
                                     spec.preset,
                                     std::to_string(spec.weeks),
                                     std::to_string(spec.seed)};
  for (const ResultField& field : kResultFields) {
    if (keep(field)) values.push_back(FieldText(row.result, field, FmtDouble));
  }
  writer_.WriteRow(values);
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
  const double n = static_cast<double>(results.size());
  for (const SimResult& r : results) {
    for (const ResultField& field : kResultFields) {
      std::visit(
          [&](auto member) {
            auto& acc = mean.*member;
            switch (field.reduce) {
              case FieldReduce::kMean: acc += r.*member / n; break;
              case FieldReduce::kSum: acc += r.*member; break;
              case FieldReduce::kMax: acc = std::max(acc, r.*member); break;
            }
          },
          field.member);
    }
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
