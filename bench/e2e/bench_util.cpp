#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace e2e {

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum;
}

namespace {

constexpr double kHistMinUs = 0.01;
constexpr double kHistGrowth = 1.01;
const double kLogGrowth = std::log(kHistGrowth);
constexpr std::size_t kHistBuckets = 2400;  // 0.01 us * 1.01^2400 > 100 s

}  // namespace

void LatencyHistogram::Add(double micros) {
  if (buckets_.empty()) buckets_.assign(kHistBuckets, 0);
  std::size_t bucket = 0;
  if (micros > kHistMinUs) {
    bucket = std::min(kHistBuckets - 1,
                      static_cast<std::size_t>(std::log(micros / kHistMinUs) / kLogGrowth));
  }
  ++buckets_[bucket];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  if (buckets_.empty()) buckets_.assign(kHistBuckets, 0);
  for (std::size_t b = 0; b < kHistBuckets; ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen >= std::max<std::uint64_t>(rank, 1)) {
      // Geometric middle of the bucket.
      return kHistMinUs * std::pow(kHistGrowth, static_cast<double>(b) + 0.5);
    }
  }
  return kHistMinUs * std::pow(kHistGrowth, static_cast<double>(kHistBuckets));
}

std::uint64_t Fnv1a(std::string_view text, std::uint64_t hash) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string StrippedCsv(const hs::SpecResult& row) {
  std::ostringstream out;
  hs::CsvResultSink sink(out, hs::CsvSinkOptions{.include_wallclock = false});
  sink.OnResult(0, row);
  return out.str();
}

int SpanLog::Begin(std::string name) {
  const int id = static_cast<int>(spans_.size());
  const Clock::time_point now = Clock::now();
  spans_.push_back(Span{std::move(name), now, now, open()});
  open_.push_back(id);
  return id;
}

void SpanLog::End(int id) {
  spans_[static_cast<std::size_t>(id)].end = Clock::now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int SpanLog::Add(std::string name, Clock::time_point start, Clock::time_point end,
                 int parent) {
  spans_.push_back(Span{std::move(name), start, end, parent});
  return static_cast<int>(spans_.size()) - 1;
}

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void WriteChromeTrace(const std::string& path, const std::vector<const SpanLog*>& logs) {
  Clock::time_point epoch = Clock::time_point::max();
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) epoch = std::min(epoch, span.start);
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[160];
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      std::snprintf(buf, sizeof(buf),
                    ",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"id\":%zu,\"parent\":%d}}",
                    log->tid(), Seconds(span.start - epoch) * 1e6,
                    Seconds(span.end - span.start) * 1e6, i, span.parent);
      out << (first ? "\n" : ",\n") << "{\"name\":" << JsonString(span.name) << buf;
      first = false;
    }
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("short write to trace file " + path);
}

double PeakRssMb() {
  // VmHWM, not RUSAGE_SELF: ru_maxrss keeps the high-water mark of the
  // image exec replaced, so hs_bench started straight from a large process
  // would report that process's size.
  long self_kb = 0;
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) self_kb = std::stol(line.substr(6));
  }
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self_kb, children.ru_maxrss)) / 1024.0;
}

Child::~Child() {
  if (proc_.running()) proc_.Kill(SIGKILL);
  proc_.Wait();
}

std::uint16_t WaitForPortFile(const std::string& path, Child& child) {
  const Clock::time_point deadline = After(60.0);
  for (;;) {
    std::ifstream in(path);
    int port = 0;
    if (in >> port && port > 0 && port < 65536) return static_cast<std::uint16_t>(port);
    if (child.proc().Poll()) throw std::runtime_error("child exited before publishing " + path);
    if (Clock::now() > deadline) throw std::runtime_error("no port published in " + path);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

void ReportEndToEnd(Report& report, const std::vector<double>& op_ms,
                    const std::vector<double>& setup_s) {
  if (op_ms.empty()) report.Check("ops", false, "no operation finished in the measured time");
  const double busy_s = Sum(op_ms) / 1e3;
  report.Metric("ops_per_s", busy_s > 0 ? static_cast<double>(op_ms.size()) / busy_s : 0.0,
                "1/s");
  report.Metric("op_p50_ms", hs::Percentile(op_ms, 0.50), "ms");
  report.Metric("op_p90_ms", hs::Percentile(op_ms, 0.90), "ms");
  report.Metric("setup_s", hs::Percentile(setup_s, 0.50), "s");
  report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  report.Metric("ops", static_cast<double>(op_ms.size()), "count");
}

void Report::Metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back(Entry{name, value, unit});
}

void Report::Check(const std::string& name, bool ok, const std::string& detail) {
  if (!ok) correct_ = false;
  std::fprintf(stderr, "check %s/%s: %s%s%s\n", workload_.c_str(), name.c_str(),
               ok ? "ok" : "FAIL", detail.empty() ? "" : " ", detail.c_str());
}

bool Report::Finish(const std::vector<std::pair<std::string, std::string>>& contract) {
  if (attempted_ == 0) Check("attempted", false, "no operation ran");
  for (const Entry& m : metrics_) {
    std::printf("%s %s %.6g %s\n", workload_.c_str(), m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json;
  for (const auto& [name, unit] : contract) {
    const auto it = std::find_if(metrics_.begin(), metrics_.end(),
                                 [&](const Entry& m) { return m.name == name; });
    if (it == metrics_.end() || it->unit != unit || !std::isfinite(it->value)) {
      Check("metric " + name, false, "missing, non-finite, or not in " + unit);
      continue;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", it->value);
    if (!json.empty()) json += ", ";
    json += JsonString(name) + ": {\"value\": " + value + ", \"unit\": " + JsonString(unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
              correct_ ? "true" : "false", attempted_, failed_,
              json.c_str());
  std::fflush(stdout);
  return correct_;
}

}  // namespace e2e
