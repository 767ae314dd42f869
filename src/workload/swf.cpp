#include "workload/swf.h"

#include <algorithm>
#include <climits>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "util/parse.h"

namespace hs {

namespace {

SimTime EncodeNever(SimTime t) { return t == kNever ? -1 : t; }
SimTime DecodeNever(long long t) { return t < 0 ? kNever : static_cast<SimTime>(t); }

/// The integer after "MaxNodes:" (at `pos`) in header comment `line`;
/// blanks around it are allowed, anything else is an error naming the line.
int ParseMaxNodes(const std::string& line, std::size_t pos, std::size_t lineno) {
  std::string_view text = std::string_view(line).substr(pos + 9);
  const std::size_t first = text.find_first_not_of(" \t\r");
  text.remove_prefix(first == std::string_view::npos ? text.size() : first);
  text = text.substr(0, text.find_last_not_of(" \t\r") + 1);
  const std::optional<std::int64_t> nodes = ParseInt(text, INT_MIN, INT_MAX);
  if (!nodes) {
    throw std::invalid_argument("SWF header line " + std::to_string(lineno) +
                                ": bad MaxNodes in '" + line + "'");
  }
  return static_cast<int>(*nodes);
}

}  // namespace

void WriteHswf(const Trace& trace, std::ostream& out) {
  out << "; HSWF 1\n";
  out << "; MaxNodes: " << trace.num_nodes << "\n";
  out << "; Name: " << (trace.name.empty() ? "unnamed" : trace.name) << "\n";
  out << "; id project class notice submit notice_time predicted size min_size "
         "compute estimate setup\n";
  for (const auto& j : trace.jobs) {
    out << j.id << ' ' << j.project << ' ' << static_cast<int>(j.klass) << ' '
        << static_cast<int>(j.notice) << ' ' << j.submit_time << ' '
        << EncodeNever(j.notice_time) << ' ' << EncodeNever(j.predicted_arrival)
        << ' ' << j.size << ' ' << j.min_size << ' ' << j.compute_time << ' '
        << j.estimate << ' ' << j.setup_time << '\n';
  }
}

Trace ReadHswf(std::istream& in) {
  Trace trace;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line[0] == ';') {
      const auto pos = line.find("MaxNodes:");
      if (pos != std::string::npos) trace.num_nodes = ParseMaxNodes(line, pos, lineno);
      const auto npos = line.find("Name:");
      if (npos != std::string::npos) {
        std::string name = line.substr(npos + 5);
        const auto first = name.find_first_not_of(' ');
        trace.name = (first == std::string::npos) ? "" : name.substr(first);
      }
      continue;
    }
    std::istringstream fields(line);
    long long id, project, klass, notice, submit, notice_time, predicted;
    long long size, min_size, compute, estimate, setup;
    if (!(fields >> id >> project >> klass >> notice >> submit >> notice_time >>
          predicted >> size >> min_size >> compute >> estimate >> setup)) {
      throw std::runtime_error("HSWF parse error at line " + std::to_string(lineno));
    }
    if (klass < 0 || klass > 2 || notice < 0 || notice > 3) {
      throw std::runtime_error("HSWF bad class/notice at line " + std::to_string(lineno));
    }
    JobRecord j;
    j.id = id;
    j.project = static_cast<std::int32_t>(project);
    j.klass = static_cast<JobClass>(klass);
    j.notice = static_cast<NoticeClass>(notice);
    j.submit_time = submit;
    j.notice_time = DecodeNever(notice_time);
    j.predicted_arrival = DecodeNever(predicted);
    j.size = static_cast<int>(size);
    j.min_size = static_cast<int>(min_size);
    j.compute_time = compute;
    j.estimate = estimate;
    j.setup_time = setup;
    trace.jobs.push_back(j);
  }
  std::sort(trace.jobs.begin(), trace.jobs.end(),
            [](const JobRecord& a, const JobRecord& b) {
              if (a.submit_time != b.submit_time) return a.submit_time < b.submit_time;
              return a.id < b.id;
            });
  return trace;
}

void WriteHswfFile(const Trace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  WriteHswf(trace, out);
}

Trace ReadHswfFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  return ReadHswf(in);
}

Trace ImportSwf(std::istream& in, int num_nodes) {
  Trace trace;
  trace.num_nodes = num_nodes;
  std::string line;
  std::size_t lineno = 0;
  JobId next_id = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line[0] == ';') {
      const auto pos = line.find("MaxNodes:");
      if (pos != std::string::npos && num_nodes <= 0) {
        trace.num_nodes = ParseMaxNodes(line, pos, lineno);
      }
      continue;
    }
    std::istringstream fields(line);
    // SWF: 1 job number, 2 submit, 3 wait, 4 run, 5 procs used, 6 avg cpu,
    // 7 mem, 8 procs requested, 9 time requested, 10 mem requested,
    // 11 status, 12 uid, 13 gid, 14 app, 15 queue, 16 partition,
    // 17 preceding job, 18 think time.
    long long f[18];
    bool ok = true;
    for (int i = 0; i < 18; ++i) {
      if (!(fields >> f[i])) {
        // Tolerate short lines as long as the first 9 fields exist.
        if (i >= 9) { for (int k = i; k < 18; ++k) f[k] = -1; break; }
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    const long long submit = f[1];
    const long long runtime = f[3];
    long long procs = f[7] > 0 ? f[7] : f[4];
    long long requested_time = f[8] > 0 ? f[8] : runtime;
    if (runtime <= 0 || procs <= 0 || submit < 0) continue;
    JobRecord j;
    j.id = next_id++;
    j.project = static_cast<std::int32_t>(f[12] >= 0 ? f[12] : 0);  // group id
    j.klass = JobClass::kRigid;
    j.submit_time = submit;
    j.size = static_cast<int>(procs);
    j.min_size = j.size;
    j.compute_time = runtime;
    j.setup_time = 0;
    j.estimate = std::max<long long>(requested_time, runtime);
    trace.jobs.push_back(j);
  }
  if (trace.num_nodes <= 0) {
    int max_size = 1;
    for (const auto& j : trace.jobs) max_size = std::max(max_size, j.size);
    trace.num_nodes = max_size;
  }
  return trace;
}

}  // namespace hs
