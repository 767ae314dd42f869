#include "service/protocol.h"

#include <climits>
#include <stdexcept>

namespace hs {

namespace {

std::string WireClassName(JobClass klass) {
  switch (klass) {
    case JobClass::kRigid: return "rigid";
    case JobClass::kOnDemand: return "od";
    case JobClass::kMalleable: return "malleable";
  }
  return "rigid";
}

JobClass ParseWireClass(const std::string& name) {
  if (name == "rigid") return JobClass::kRigid;
  if (name == "od") return JobClass::kOnDemand;
  if (name == "malleable") return JobClass::kMalleable;
  throw std::invalid_argument("bad job class '" + name +
                              "' (rigid|od|malleable)");
}

}  // namespace

Request Request::Parse(const std::string& line) {
  Request req;
  for (const KvToken& token : Tokenize(line, ' ')) {
    if (token.text.empty()) continue;
    if (req.verb_.empty()) {
      req.verb_ = token.text;
    } else if (token.kind != KvToken::Kind::kKeyValue) {
      throw std::invalid_argument("argument '" + std::string(token.text) +
                                  "' is not key=value");
    } else {
      req.Add(token, /*decode=*/true);
    }
  }
  if (req.verb_.empty()) throw std::invalid_argument("empty request line");
  return req;
}

SimTime Request::GetTime(const std::string& key, SimTime now, SimTime def) const {
  if (!Has(key)) return def;
  const std::string text = GetString(key, "");
  if (text.empty() || text[0] != '+') return GetInt(key, def);
  const std::optional<std::int64_t> offset = ParseInt(std::string_view(text).substr(1));
  SimTime at = 0;
  if (!offset || __builtin_add_overflow(now, *offset, &at)) {
    Fail(key, "want a time: seconds, or +D from now");
  }
  return at;
}

std::string FormatRequest(
    const std::string& verb,
    const std::vector<std::pair<std::string, std::string>>& args) {
  std::string line = verb;
  for (const auto& [key, value] : args) {
    line += ' ';
    line += key;
    line += '=';
    line += EscapeField(value);
  }
  return line;
}

std::string FormatJobFields(const JobRecord& job, bool with_id) {
  std::string out;
  if (with_id) out += "id=" + std::to_string(job.id) + " ";
  out += "class=" + WireClassName(job.klass);
  out += " size=" + std::to_string(job.size);
  out += " min=" + std::to_string(job.min_size);
  out += " submit=" + std::to_string(job.submit_time);
  out += " compute=" + std::to_string(job.compute_time);
  out += " estimate=" + std::to_string(job.estimate);
  out += " setup=" + std::to_string(job.setup_time);
  if (job.has_notice()) {
    out += " notice=" + std::to_string(job.notice_time);
    out += " predicted=" + std::to_string(job.predicted_arrival);
  }
  if (job.project >= 0) out += " project=" + std::to_string(job.project);
  return out;
}

JobRecord ParseJobFields(const Request& req, SimTime now) {
  JobRecord job;
  job.klass = ParseWireClass(req.GetString("class", "rigid"));
  job.size = static_cast<int>(req.GetInt("size", 0, INT_MIN, INT_MAX));
  job.min_size = static_cast<int>(req.GetInt("min", job.size, INT_MIN, INT_MAX));
  job.submit_time = req.GetTime("submit", now, now + 1);
  job.compute_time = req.GetTime("compute", 0, 0);
  job.estimate = req.GetTime("estimate", 0, 0);
  job.setup_time = req.GetTime("setup", 0, 0);
  job.project = static_cast<std::int32_t>(req.GetInt("project", -1, INT32_MIN, INT32_MAX));
  if (job.estimate == 0 &&
      __builtin_add_overflow(job.setup_time, job.compute_time, &job.estimate)) {
    throw std::invalid_argument("setup= plus compute= overflows the clock");
  }
  const bool has_notice = req.Has("notice");
  const bool has_predicted = req.Has("predicted");
  if (has_notice != has_predicted) {
    throw std::invalid_argument("notice= and predicted= go together");
  }
  if (has_notice) {
    if (job.klass != JobClass::kOnDemand) {
      throw std::invalid_argument("only od jobs carry a notice");
    }
    job.notice_time = req.GetTime("notice", now, kNever);
    job.predicted_arrival = req.GetTime("predicted", now, kNever);
    if (job.predicted_arrival == job.submit_time) {
      job.notice = NoticeClass::kAccurate;
    } else if (job.submit_time < job.predicted_arrival) {
      job.notice = NoticeClass::kEarly;
    } else {
      job.notice = NoticeClass::kLate;
    }
  }
  return job;
}

JobId ParseJobId(const Request& req) {
  if (!req.Has("id")) throw std::invalid_argument("missing id=");
  return req.GetInt("id", kNoJob);
}

}  // namespace hs
