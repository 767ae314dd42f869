// The hs-session wire protocol: versioned, line-delimited text.
//
// Same family as the `# hs-shard v1` formats (exp/shard_io.h): every
// message is one line of space-separated tokens, the first being the verb
// (requests) or status (responses), the rest `key=value` pairs with values
// percent-escaped (space -> %20, '%' -> %25, newline -> %0A). Requests are
// read with the one key=value grammar of util/parse.h: strict integers, no
// repeated keys, errors that name the token as sent. Doubles are
// printed with 17 significant digits so they round-trip bit-exactly —
// byte-determinism of responses is part of the contract (tested against
// the batch-run oracle).
//
// Grammar (see docs/SERVER.md for verb semantics):
//
//   request   := verb (' ' key '=' escaped-value)*
//   response  := ('ok' | 'err') (' ' key '=' escaped-value)* | 'err' text
//
// Job records cross the wire as a fixed key set, shared by the `submit`
// verb, what-if probes, and snapshot `op submit` lines:
//
//   class=rigid|od|malleable size=N [min=N] submit=T compute=S estimate=S
//   [setup=S] [notice=T predicted=T] [project=P] [id=J]
//
// Times are absolute simulated seconds; request parsers additionally accept
// '+D' (relative to the session's current time) wherever a time is taken.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/parse.h"
#include "util/time.h"
#include "workload/job.h"

namespace hs {

/// Protocol version line: the server greets each connection with it, and
/// snapshot files open with it.
inline constexpr const char* kWireGreeting = "# hs-session v1";

/// The wire's percent codec: ' ', '%' and newline travel as %20, %25, %0A.
inline std::string EscapeField(std::string_view value) { return PercentEncode(value, " \n"); }
inline std::string UnescapeField(std::string_view value) { return PercentDecode(value); }

/// One parsed request line: the verb plus the key=value bag (util/parse.h)
/// in wire order, values unescaped. The getters throw std::invalid_argument
/// naming the token on malformed values and mark the key as read; call
/// RejectUnknown() after reading all args so a typo'd key fails loudly
/// instead of defaulting. A repeated key is an error.
class Request : public KeyValues {
 public:
  /// Parses `verb key=value ...`; throws std::invalid_argument on an empty
  /// line, an argument without '=', a bad escape or a repeated key.
  static Request Parse(const std::string& line);

  const std::string& verb() const { return verb_; }
  /// A time argument: absolute seconds, or '+D' meaning `now + D`.
  SimTime GetTime(const std::string& key, SimTime now, SimTime def) const;

 private:
  std::string verb_;
};

/// Formats `verb key=value ...` with values escaped (the client side).
std::string FormatRequest(const std::string& verb,
                          const std::vector<std::pair<std::string, std::string>>& args);

/// Renders a JobRecord as its wire key set (`with_id` adds `id=` — snapshot
/// op lines carry it, submit responses echo it separately).
std::string FormatJobFields(const JobRecord& job, bool with_id);

/// Builds a JobRecord from a request's wire keys. `now` resolves relative
/// times. The notice class is derived from (notice, predicted, submit):
/// absent -> none, predicted == submit -> accurate, submit < predicted ->
/// early, submit > predicted -> late. The id is NOT read here (sessions
/// assign ids); ParseJobId handles snapshot lines. Throws
/// std::invalid_argument on missing/malformed keys.
JobRecord ParseJobFields(const Request& req, SimTime now);

/// The `id=` key of a snapshot op line; throws when absent.
JobId ParseJobId(const Request& req);

}  // namespace hs
