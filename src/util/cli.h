// A tiny --key=value flag parser for the example binaries; no external
// dependencies and no global state.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace hs {

/// Parses argv of the form: prog --alpha=3 --name=foo --verbose positional.
/// Flags must use the --key=value or --key (boolean true) forms.
///
/// GetInt/GetDouble/GetBool parse the whole value and throw
/// std::invalid_argument naming `--key=value` when it is malformed
/// (`--port=abc`, `--threads=2x`); booleans are true/1/yes or false/0/no.
///
/// Every Get*/Has call records its key as recognized; call RejectUnknown()
/// once all flags have been read to fail loudly on typo'd flags instead of
/// silently falling through to defaults.
class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  bool Has(const std::string& key) const;
  std::string GetString(const std::string& key, const std::string& def) const;
  std::int64_t GetInt(const std::string& key, std::int64_t def) const;
  double GetDouble(const std::string& key, double def) const;
  bool GetBool(const std::string& key, bool def) const;

  /// Throws std::invalid_argument listing every --flag that was passed but
  /// never read through Has/Get* (i.e. flags no code path recognizes).
  void RejectUnknown() const;

  /// The flags RejectUnknown would complain about right now.
  std::vector<std::string> UnknownFlags() const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  /// The value of --key (recorded as recognized), or null when absent.
  const std::string* Find(const std::string& key) const;

  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> recognized_;
};

}  // namespace hs
