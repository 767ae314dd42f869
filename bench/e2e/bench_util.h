// Shared plumbing of hs_bench: clocks, a compact latency histogram, FNV-1a
// row digests, a discarding output stream, the in-memory span log (written
// out as Chrome trace-event JSON), the run options, and the metric report
// that ends every run with its one-line JSON result.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exp/runner.h"
#include "util/stats.h"
#include "util/subprocess.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }
inline double Since(Clock::time_point t0) { return Seconds(Clock::now() - t0); }

inline Clock::time_point After(double seconds) {
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

double Sum(const std::vector<double>& values);

/// An ostream that formats everything written to it and keeps none of it:
/// the sink a timed CsvResultSink writes to, so a run's memory does not
/// grow with the rows it has produced.
class DiscardStream final : public std::ostream {
 public:
  DiscardStream() : std::ostream(&buffer_) {}

 private:
  class Buffer final : public std::streambuf {
   protected:
    int_type overflow(int_type c) override {
      setp(chunk_, chunk_ + sizeof(chunk_));
      return traits_type::not_eof(c);
    }

   private:
    char chunk_[4096];
  };
  Buffer buffer_;
};

/// Log-bucketed latency histogram (about 1% relative resolution, 10 ns to
/// 100 s) for per-pass and per-batch times, which are too many to keep.
class LatencyHistogram {
 public:
  void Add(double micros);
  void Merge(const LatencyHistogram& other);
  double Quantile(double q) const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// 64-bit FNV-1a, continuing from `hash`.
std::uint64_t Fnv1a(std::string_view text,
                    std::uint64_t hash = 0xcbf29ce484222325ull);

/// One row as the wall-clock-free CSV text (header line included) the
/// digests and every equality check compare.
std::string StrippedCsv(const hs::SpecResult& row);

/// Fnv1a of StrippedCsv(row), continuing from `hash`: how checks keep rows
/// they compare later without keeping their text.
inline std::uint64_t RowDigest(const hs::SpecResult& row,
                               std::uint64_t hash = 0xcbf29ce484222325ull) {
  return Fnv1a(StrippedCsv(row), hash);
}

/// One closed interval on one thread; `parent` indexes the same log (-1:
/// none).
struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;
};

/// Spans kept in memory and written when the run ends. Begin() nests under
/// the innermost open span; Add() records an interval measured elsewhere.
/// Not thread-safe: one log per client thread.
class SpanLog {
 public:
  explicit SpanLog(int tid) : tid_(tid) {}

  int Begin(std::string name);
  void End(int id);
  int Add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent);
  int open() const { return open_.empty() ? -1 : open_.back(); }

  int tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int tid_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Writes `logs` as a Chrome trace-event JSON file ("X" events; each span's
/// id and parent id ride in args).
void WriteChromeTrace(const std::string& path, const std::vector<const SpanLog*>& logs);

/// Peak resident set in MiB: max(this process's VmHWM,
/// RUSAGE_CHILDREN.ru_maxrss), where the children term covers every reaped
/// server, agent and worker, and the workers those agents reaped.
double PeakRssMb();

/// A spawned child (hs_server, hs_agent), SIGKILLed if still running and
/// reaped on destruction, on every path.
class Child {
 public:
  explicit Child(hs::Subprocess proc) : proc_(std::move(proc)) {}
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  hs::Subprocess& proc() { return proc_; }

 private:
  hs::Subprocess proc_;
};

/// Polls (every 50 us, so start-up times keep their resolution) until
/// `child` publishes a port in `path`; throws if it exits first or after a
/// minute.
std::uint16_t WaitForPortFile(const std::string& path, Child& child);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;  // measured time of one run
  bool traced = false;
  bool smoke = false;
  std::string work_dir;   // scratch files, inside the checkout
  std::string trace_out;  // Chrome trace JSON of a traced run
  std::string digests;    // recorded default-seed row digests
  std::string bin_dir;    // hs_server / hs_agent / hs_worker
};

/// Set-ups a run times; it reports their median. Sub-millisecond process
/// start-ups moved a five-sample median 30% between runs.
constexpr int kSetupReps = 21;

/// Seed of the `index`-th input a run draws (a cell's or sweep cell's
/// trace, a service session's client script): distinct per index, so a
/// run averages over many inputs instead of timing two.
inline std::uint64_t ScenarioSeed(std::uint64_t seed, std::size_t index) {
  return seed * 100000 + index;
}

/// Metrics, checks and operation counts of one run.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records a check and logs it to stderr; any failed check makes the run
  /// incorrect.
  void Check(const std::string& name, bool ok, const std::string& detail = "");
  void Attempted(std::size_t n) { attempted_ += n; }
  void Failed(std::size_t n) { failed_ += n; }

  /// Prints every metric as `workload metric value unit`, then the result
  /// JSON with exactly the `contract` metrics (a missing one fails the run).
  /// Returns whether the run was correct.
  bool Finish(const std::vector<std::pair<std::string, std::string>>& contract);

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::string workload_;
  std::vector<Entry> metrics_;
  bool correct_ = true;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// The end-to-end metrics every workload reports, from its closed-loop
/// operation latencies and its repeated set-up times: ops_per_s (ops over
/// their summed latency), op_p50_ms, op_p90_ms, setup_s (median),
/// peak_rss_mb.
void ReportEndToEnd(Report& report, const std::vector<double>& op_ms,
                    const std::vector<double>& setup_s);

}  // namespace e2e
