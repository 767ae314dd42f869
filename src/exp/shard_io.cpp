#include "exp/shard_io.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <limits>
#include <ostream>
#include <set>
#include <stdexcept>

#include "util/parse.h"

namespace hs {

namespace {

// --- SimResult field tables -------------------------------------------------
// One row in these tables = one key in the worker JSON "result" object. The
// writer and parser share them, so the two cannot drift; a new SimResult
// field only needs one entry here (the strict parser then forces every
// worker/orchestrator pair onto the same schema).

struct DoubleField {
  const char* name;
  double SimResult::*field;
};

struct CountField {
  const char* name;
  std::size_t SimResult::*field;
};

constexpr DoubleField kDoubleFields[] = {
    {"avg_turnaround_h", &SimResult::avg_turnaround_h},
    {"rigid_turnaround_h", &SimResult::rigid_turnaround_h},
    {"malleable_turnaround_h", &SimResult::malleable_turnaround_h},
    {"od_turnaround_h", &SimResult::od_turnaround_h},
    {"avg_wait_h", &SimResult::avg_wait_h},
    {"od_instant_rate", &SimResult::od_instant_rate},
    {"od_instant_rate_strict", &SimResult::od_instant_rate_strict},
    {"od_avg_delay_s", &SimResult::od_avg_delay_s},
    {"rigid_preempt_ratio", &SimResult::rigid_preempt_ratio},
    {"malleable_preempt_ratio", &SimResult::malleable_preempt_ratio},
    {"malleable_shrink_ratio", &SimResult::malleable_shrink_ratio},
    {"utilization", &SimResult::utilization},
    {"useful_utilization", &SimResult::useful_utilization},
    {"allocated_utilization", &SimResult::allocated_utilization},
    {"window_utilization", &SimResult::window_utilization},
    {"lost_node_hours", &SimResult::lost_node_hours},
    {"setup_node_hours", &SimResult::setup_node_hours},
    {"checkpoint_node_hours", &SimResult::checkpoint_node_hours},
    {"decision_avg_us", &SimResult::decision_avg_us},
    {"decision_max_us", &SimResult::decision_max_us},
};

constexpr CountField kCountFields[] = {
    {"jobs_completed", &SimResult::jobs_completed},
    {"jobs_killed", &SimResult::jobs_killed},
    {"od_jobs", &SimResult::od_jobs},
    {"preemptions", &SimResult::preemptions},
    {"failures", &SimResult::failures},
    {"shrinks", &SimResult::shrinks},
    {"expands", &SimResult::expands},
    {"decisions", &SimResult::decisions},
};

/// %.17g: enough digits that strtod round-trips every finite double exactly.
std::string FmtExactDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", std::numeric_limits<double>::max_digits10,
                value);
  return buf;
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

// --- minimal JSON scanner for worker rows -----------------------------------
// Handles exactly the shape WriteWorkerRow emits: one flat object whose
// values are strings, numbers, or the one nested "result" object. Strict:
// anything else throws.

class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text) : text_(text) {}

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipWs();
    return pos_ >= text_.size();
  }

  char Peek() {
    SkipWs();
    if (pos_ >= text_.size()) Fail("unexpected end of line");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) {
      Fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
    }
    ++pos_;
  }

  bool TryConsume(char c) {
    if (AtEnd() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) Fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= text_.size()) Fail("dangling escape");
        const char esc = text_[pos_++];
        if (esc == 'n') {
          out += '\n';
        } else if (esc == '"' || esc == '\\') {
          out += esc;
        } else {
          Fail(std::string("unsupported escape '\\") + esc + "'");
        }
        continue;
      }
      out += c;
    }
    return out;
  }

  /// The raw characters of a JSON number token (validated by the caller's
  /// strtod/ParseInt, which must consume all of it).
  std::string ParseNumberToken() {
    SkipWs();
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' ||
          c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) Fail("expected a number");
    return text_.substr(start, pos_ - start);
  }

  [[noreturn]] void Fail(const std::string& what) const {
    throw std::runtime_error("worker row: " + what + " at offset " +
                             std::to_string(pos_) + " in: " + text_);
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
};

double ParseExactDouble(JsonCursor& cur) {
  const std::string token = cur.ParseNumberToken();
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || errno == ERANGE) {
    cur.Fail("bad double '" + token + "'");
  }
  return value;
}

std::size_t ParseCount(JsonCursor& cur) {
  const std::string token = cur.ParseNumberToken();
  const std::optional<std::int64_t> value = ParseInt(token, 0);
  if (!value) cur.Fail("bad counter '" + token + "'");
  return static_cast<std::size_t>(*value);
}

SimResult ParseResultObject(JsonCursor& cur) {
  SimResult result;
  std::set<std::string> seen;
  cur.Expect('{');
  while (!cur.TryConsume('}')) {
    if (!seen.empty()) cur.Expect(',');
    const std::string key = cur.ParseString();
    cur.Expect(':');
    if (!seen.insert(key).second) cur.Fail("duplicate result field '" + key + "'");
    bool known = false;
    for (const DoubleField& f : kDoubleFields) {
      if (key == f.name) {
        result.*(f.field) = ParseExactDouble(cur);
        known = true;
        break;
      }
    }
    if (!known) {
      for (const CountField& f : kCountFields) {
        if (key == f.name) {
          result.*(f.field) = ParseCount(cur);
          known = true;
          break;
        }
      }
    }
    if (!known && key == "makespan") {
      const std::string token = cur.ParseNumberToken();
      const std::optional<std::int64_t> value = ParseInt(token);
      if (!value) cur.Fail("bad makespan '" + token + "'");
      result.makespan = static_cast<SimTime>(*value);
      known = true;
    }
    if (!known) cur.Fail("unknown result field '" + key + "'");
  }
  const std::size_t expected = std::size(kDoubleFields) + std::size(kCountFields) + 1;
  if (seen.size() != expected) {
    cur.Fail("result object has " + std::to_string(seen.size()) + " fields, expected " +
             std::to_string(expected));
  }
  return result;
}

}  // namespace

void WriteShardCells(std::ostream& out, const std::vector<std::size_t>& indices,
                     const std::vector<SimSpec>& specs) {
  for (const std::size_t index : indices) {
    if (index >= specs.size()) {
      throw std::runtime_error("WriteShardCells: index " + std::to_string(index) +
                               " out of range (" + std::to_string(specs.size()) +
                               " specs)");
    }
    out << index << "\t" << specs[index].ToString() << "\n";
  }
}

void WriteShardFile(std::ostream& out, const std::vector<std::size_t>& indices,
                    const std::vector<SimSpec>& specs) {
  out << kShardHeader << "\n";
  WriteShardCells(out, indices, specs);
}

std::vector<IndexedSpec> ReadShardFile(std::istream& in) {
  std::vector<IndexedSpec> cells;
  std::set<std::size_t> seen;
  std::string line;
  std::size_t lineno = 0;
  bool saw_header = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!saw_header) {
      if (line != kShardHeader) {
        throw std::runtime_error("shard file line 1: expected header '" +
                                 std::string(kShardHeader) + "', got '" + line + "'");
      }
      saw_header = true;
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos) {
      throw std::runtime_error("shard file line " + std::to_string(lineno) +
                               ": expected '<index>\\t<spec>', got '" + line + "'");
    }
    const std::string index_text = line.substr(0, tab);
    const std::optional<std::int64_t> index = ParseInt(index_text, 0);
    if (!index) {
      throw std::runtime_error("shard file line " + std::to_string(lineno) +
                               ": bad spec index '" + index_text + "'");
    }
    if (!seen.insert(static_cast<std::size_t>(*index)).second) {
      throw std::runtime_error("shard file line " + std::to_string(lineno) +
                               ": duplicate spec index " + index_text);
    }
    IndexedSpec cell;
    cell.index = static_cast<std::size_t>(*index);
    try {
      cell.spec = SimSpec::Parse(line.substr(tab + 1));
    } catch (const std::exception& e) {
      throw std::runtime_error("shard file line " + std::to_string(lineno) + ": " +
                               e.what());
    }
    cells.push_back(std::move(cell));
  }
  if (!saw_header) {
    throw std::runtime_error("shard file: empty (missing '" +
                             std::string(kShardHeader) + "' header)");
  }
  return cells;
}

void WriteWorkerRow(std::ostream& out, std::size_t index, const SpecResult& row) {
  out << "{\"index\":" << index << ",\"spec\":\"" << JsonEscape(row.spec.ToString())
      << "\",\"trace\":\"" << JsonEscape(row.trace_name) << "\",\"result\":{";
  bool first = true;
  for (const DoubleField& f : kDoubleFields) {
    if (!first) out << ",";
    first = false;
    out << "\"" << f.name << "\":" << FmtExactDouble(row.result.*(f.field));
  }
  for (const CountField& f : kCountFields) {
    out << ",\"" << f.name << "\":" << row.result.*(f.field);
  }
  out << ",\"makespan\":" << row.result.makespan << "}}\n";
}

IndexedSpecResult ParseWorkerRow(const std::string& line) {
  JsonCursor cur(line);
  IndexedSpecResult cell;
  bool saw_index = false, saw_spec = false, saw_trace = false, saw_result = false;
  cur.Expect('{');
  bool first = true;
  while (!cur.TryConsume('}')) {
    if (!first) cur.Expect(',');
    first = false;
    const std::string key = cur.ParseString();
    cur.Expect(':');
    if (key == "index") {
      cell.index = ParseCount(cur);
      saw_index = true;
    } else if (key == "spec") {
      cell.row.spec = SimSpec::Parse(cur.ParseString());
      saw_spec = true;
    } else if (key == "trace") {
      cell.row.trace_name = cur.ParseString();
      saw_trace = true;
    } else if (key == "result") {
      cell.row.result = ParseResultObject(cur);
      saw_result = true;
    } else {
      cur.Fail("unknown field '" + key + "'");
    }
  }
  if (!cur.AtEnd()) cur.Fail("trailing characters after object");
  if (!saw_index || !saw_spec || !saw_trace || !saw_result) {
    cur.Fail("missing field (need index, spec, trace, result)");
  }
  return cell;
}

}  // namespace hs
