// ExperimentRunner: executes a flat vector of SimSpecs over the thread
// pool, streaming one result row per completed cell to a ResultSink.
//
// Replaces the nested-vector RunGrid API: an experiment is now "a list of
// specs" (any mix of mechanisms, policies, presets, seeds and overrides),
// results come back in spec order, and traces are built once per distinct
// ScenarioKey() and shared across the cells that need them.
//
// Sinks receive the cell's position in the spec vector alongside the row,
// so order-sensitive consumers (MergingResultSink, the sharded worker
// protocol in shard_io.h) can restore canonical spec order no matter which
// thread or process finished first.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exp/session.h"
#include "exp/sim_spec.h"
#include "util/csv.h"
#include "util/thread_pool.h"

namespace hs {

/// One completed experiment cell.
struct SpecResult {
  SimSpec spec;
  std::string trace_name;
  SimResult result;
};

/// Streaming consumer of completed cells. OnResult is invoked from the
/// runner as each cell finishes (serialized; never concurrently), in
/// completion order — not spec order. `spec_index` is the cell's position
/// in the spec vector passed to Run.
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void OnResult(std::size_t spec_index, const SpecResult& row) = 0;
};

/// Column selection shared by the CSV sink and the golden/differential
/// harness: wall-clock columns (decision_avg_us, decision_max_us) differ
/// between any two runs of the same binary, so byte-stable outputs strip
/// them and keep only simulation-content columns.
struct CsvSinkOptions {
  bool include_wallclock = true;
};

/// Writes one CSV row per completed cell (header first).
class CsvResultSink final : public ResultSink {
 public:
  /// `out` must outlive the sink.
  explicit CsvResultSink(std::ostream& out, CsvSinkOptions options = {});
  void OnResult(std::size_t spec_index, const SpecResult& row) override;

 private:
  CsvWriter writer_;
  CsvSinkOptions options_;
  bool header_written_ = false;
};

/// Writes one JSON object per line per completed cell (JSONL).
class JsonlResultSink final : public ResultSink {
 public:
  /// `out` must outlive the sink.
  explicit JsonlResultSink(std::ostream& out) : out_(out) {}
  void OnResult(std::size_t spec_index, const SpecResult& row) override;

 private:
  std::ostream& out_;
};

/// Forwards every row to each inner sink in order — e.g. a CSV file plus a
/// streaming QuantileResultSink behind one MergingResultSink.
class TeeResultSink final : public ResultSink {
 public:
  /// Every sink must outlive the tee; null entries are rejected.
  explicit TeeResultSink(std::vector<ResultSink*> sinks);
  void OnResult(std::size_t spec_index, const SpecResult& row) override;

 private:
  std::vector<ResultSink*> sinks_;
};

/// Reorders completion-order rows back into canonical spec order: rows are
/// buffered until every earlier index has arrived, then forwarded to the
/// inner sink as a contiguous in-order prefix. This makes streamed output
/// (CSV bytes included) independent of thread/process completion order —
/// the merge-determinism contract of the sharded runner.
///
/// OnResult throws std::out_of_range on an index >= expected_rows and
/// std::runtime_error on a duplicate index. Call Finish() once the run
/// completed: it throws std::runtime_error naming the missing indices when
/// rows were dropped (a worker died mid-shard), so partial output can never
/// be mistaken for a full grid.
///
/// Skip(i) declares that row i will never arrive (a quarantined poison
/// cell in a best-effort sharded run): the merge flushes past it so every
/// healthy row still reaches the inner sink in canonical order, and
/// Finish() treats it as accounted for — quarantine is explicit, never a
/// silent drop.
class MergingResultSink final : public ResultSink {
 public:
  /// `inner` must outlive the sink.
  MergingResultSink(ResultSink& inner, std::size_t expected_rows);
  void OnResult(std::size_t spec_index, const SpecResult& row) override;

  /// Marks `spec_index` as known-missing and flushes any held rows past
  /// it. Throws std::out_of_range like OnResult and std::runtime_error
  /// when the row already arrived or was already skipped.
  void Skip(std::size_t spec_index);

  /// Rows forwarded to the inner sink so far (the in-order prefix;
  /// skipped indices count once passed).
  std::size_t flushed() const { return next_; }

  /// Indices neither delivered nor skipped, in ascending order.
  std::vector<std::size_t> MissingIndices() const;

  /// Indices declared missing via Skip, in ascending order.
  std::vector<std::size_t> SkippedIndices() const;

  /// Throws std::runtime_error unless every expected row arrived or was
  /// explicitly skipped.
  void Finish() const;

 private:
  void FlushReady();

  ResultSink& inner_;
  std::vector<std::unique_ptr<SpecResult>> held_;  // buffered, not yet flushed
  std::vector<bool> seen_;
  std::vector<bool> skipped_;
  std::size_t next_ = 0;  // first index not yet forwarded
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(ThreadPool& pool) : pool_(pool) {}

  /// Runs every spec (validating all of them up front; throws
  /// std::invalid_argument on the first bad one). Distinct scenarios are
  /// generated once, in parallel; cells then run in parallel, each inside
  /// its own SimulationSession. `sink` (optional) receives each row as it
  /// completes. Returns the rows in spec order.
  ///
  /// A cell that throws mid-grid (e.g. a trace file that turned unreadable
  /// after validation) does not abort the others: every remaining cell
  /// still runs and streams its row to `sink`, and Run then throws
  /// std::runtime_error naming the first failing spec (in spec order) and
  /// its error. The sink therefore always holds every successful row.
  std::vector<SpecResult> Run(const std::vector<SimSpec>& specs,
                              ResultSink* sink = nullptr);

 private:
  ThreadPool& pool_;
  std::mutex sink_mutex_;
};

/// "3, 7, 12" — at most `limit` entries, then ", ..." (error messages
/// naming dropped/missing spec indices).
std::string FormatIndexList(const std::vector<std::size_t>& indices,
                            std::size_t limit = 8);

/// `count` copies of `base` with seed = base_seed + i: the per-trace
/// averaging pattern of every paper experiment.
std::vector<SimSpec> SeedSweep(const SimSpec& base, int count, std::uint64_t base_seed);

/// Field-wise arithmetic mean of per-seed results (counters accumulate,
/// maxima take the max).
SimResult MeanResult(const std::vector<SimResult>& results);

/// Means of consecutive groups of `group_size` rows: the "configs x seeds"
/// reduction when specs were laid out config-major via SeedSweep.
std::vector<SimResult> GroupMeans(const std::vector<SpecResult>& rows,
                                  std::size_t group_size);

}  // namespace hs
