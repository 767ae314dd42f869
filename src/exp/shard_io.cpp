#include "exp/shard_io.h"

#include <istream>
#include <ostream>
#include <set>
#include <stdexcept>
#include <type_traits>

#include "util/parse.h"

namespace hs {

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
  out << "row index=" << index << " spec=" << PercentEncode(row.spec.ToString(), " \n")
      << " trace=" << PercentEncode(row.trace_name, " \n") << ' '
      << FormatResultExact(row.result, /*include_wallclock=*/true) << " end\n";
}

IndexedSpecResult ParseWorkerRow(const std::string& line) {
  // Only a whole line ends in " end": every value is percent-encoded, so a
  // row cut short anywhere (a torn write) cannot parse as a wrong row.
  const std::vector<KvToken> tokens = Tokenize(line, ' ');
  if (tokens.size() < 2 || tokens.front().text != "row" || tokens.back().text != "end") {
    throw std::invalid_argument("worker row: want 'row <key>=<value> ... end', got '" +
                                line + "'");
  }
  KeyValues values("worker row");
  for (std::size_t i = 1; i + 1 < tokens.size(); ++i) values.Add(tokens[i], /*decode=*/true);
  const auto require = [&](const char* key) {
    if (!values.Has(key)) values.Fail(key, "missing");
  };

  IndexedSpecResult cell;
  require("index");
  cell.index = static_cast<std::size_t>(values.GetInt("index", 0, 0));
  require("spec");
  try {
    cell.row.spec = SimSpec::Parse(values.GetString("spec", ""));
  } catch (const std::invalid_argument& e) {
    values.Fail("spec", e.what());
  }
  require("trace");
  cell.row.trace_name = values.GetString("trace", "");
  for (const ResultField& field : kResultFields) {
    require(field.name);
    std::visit(
        [&](auto member) {
          auto& slot = cell.row.result.*member;
          if constexpr (std::is_same_v<decltype(slot), double&>) {
            slot = values.GetDouble(field.name, 0.0);
          } else if constexpr (std::is_same_v<decltype(slot), std::size_t&>) {
            slot = static_cast<std::size_t>(values.GetInt(field.name, 0, 0));
          } else {
            slot = values.GetInt(field.name, 0);
          }
        },
        field.member);
  }
  values.RejectUnknown();
  return cell;
}

}  // namespace hs
