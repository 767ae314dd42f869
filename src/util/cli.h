// A --key=value flag parser for the example binaries, built on the one
// key=value grammar of util/parse.h; no external dependencies and no global
// state.
#pragma once

#include <string>
#include <vector>

#include "util/parse.h"

namespace hs {

/// Parses argv of the form: prog --alpha=3 --name=foo --verbose positional.
/// Flags use the --key=value or --key (boolean true) forms; a repeated
/// flag is an error naming it.
///
/// The getters are KeyValues': GetInt/GetDouble/GetBool parse the whole
/// value and throw std::invalid_argument naming `--key=value` when it is
/// malformed (`--port=abc`, `--threads=2x`); booleans are true/1/yes/on or
/// false/0/no/off.
///
/// Every Get*/Has call marks its flag as read; call RejectUnknown() once
/// all flags have been read to fail loudly on typo'd flags instead of
/// silently falling through to defaults.
class CliArgs : public KeyValues {
 public:
  CliArgs(int argc, const char* const* argv);

  /// The flags RejectUnknown would complain about right now (without "--").
  std::vector<std::string> UnknownFlags() const { return UnknownKeys(); }

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::vector<std::string> positional_;
};

}  // namespace hs
