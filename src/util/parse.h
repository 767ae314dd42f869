// The one text grammar of CLI flags, `# hs-session` requests, spec strings,
// HS_FAULT plans and the `# hs-fabric` unit header and row frames: strict
// whole-string value parsers, one percent codec, one tokenizer and one
// checked-getter bag (KeyValues) whose errors name the token as the caller
// wrote it (`--port=abc`, `size=+7`, `origin=banana`). Malformed input
// throws std::invalid_argument; nothing is parsed leniently.
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hs {

/// `text` as a base-10 integer in [min, max], or nullopt. The whole string
/// must be digits with at most a leading '-': no '+', no whitespace, no
/// trailing bytes, no overflow.
inline std::optional<std::int64_t> ParseInt(
    std::string_view text, std::int64_t min = std::numeric_limits<std::int64_t>::min(),
    std::int64_t max = std::numeric_limits<std::int64_t>::max()) {
  std::int64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < min || value > max) return std::nullopt;
  return value;
}

/// `text` as a finite double, or nullopt. Same rules as ParseInt: the whole
/// string, no '+', no whitespace, no overflow; "inf" and "nan" are rejected.
std::optional<double> ParseDouble(std::string_view text);

/// true/1/yes/on or false/0/no/off (exact, lower case), else nullopt.
std::optional<bool> ParseBool(std::string_view text);

/// %.17g: every finite double round-trips through ParseDouble bit-exactly.
std::string FmtExactDouble(double value);

/// `value` with '%' and every byte of `special` written as %XX (upper-case
/// hex). The identity on values holding none of them.
std::string PercentEncode(std::string_view value, std::string_view special);

/// Decodes every %XX (either hex case); throws std::invalid_argument on a
/// truncated or non-hex escape.
std::string PercentDecode(std::string_view value);

/// One token of a key=value text. Views point into the tokenized text.
struct KvToken {
  enum class Kind { kPositional, kBare, kKeyValue };
  Kind kind = Kind::kPositional;
  std::string_view text;   // the whole token as written
  std::string_view key;    // kBare and kKeyValue (may be empty: a caller error)
  std::string_view value;  // kKeyValue, still escaped
};

/// Classifies one token. With a `key_prefix` (CLI: "--"), tokens without it
/// are positional and the prefix is stripped from keys; without one, every
/// token is a key. A key token holding '=' is `key=value`, else bare.
KvToken ClassifyToken(std::string_view token, std::string_view key_prefix = {});

/// Splits `text` on `sep` and classifies each piece. Empty pieces are kept
/// (as empty positional tokens) so each caller decides whether a doubled
/// separator is noise or an error.
std::vector<KvToken> Tokenize(std::string_view text, char sep,
                              std::string_view key_prefix = {});

/// The checked-getter bag: key/value entries in the order given. Every
/// Get*/Has marks the key as read; RejectUnknown then fails on any entry
/// nobody read, so a typo'd key is an error instead of a silent default.
/// A repeated key is an error. Every error names the entry's token as the
/// caller wrote it, after the optional `context` ("fault plan: ...").
class KeyValues {
 public:
  struct Entry {
    std::string key;
    std::optional<std::string> value;  // nullopt: a bare key
    std::string token;                 // as written, for error messages
  };

  explicit KeyValues(std::string context = {}) : context_(std::move(context)) {}

  /// Adds a bare or key=value token, percent-decoding its value when
  /// `decode`. Throws on an empty key, a bad escape or a repeated key.
  void Add(const KvToken& token, bool decode);
  /// Adds one entry directly (same checks, no decoding).
  void Add(std::string key, std::optional<std::string> value, std::string token);

  bool Has(const std::string& key) const;
  std::string GetString(const std::string& key, const std::string& def) const;
  std::int64_t GetInt(const std::string& key, std::int64_t def,
                      std::int64_t min = std::numeric_limits<std::int64_t>::min(),
                      std::int64_t max = std::numeric_limits<std::int64_t>::max()) const;
  double GetDouble(const std::string& key, double def) const;
  /// A bare key reads as true.
  bool GetBool(const std::string& key, bool def) const;
  /// True when the bare key is present; `key=value` is an error.
  bool GetFlag(const std::string& key) const;

  /// Throws "<context: ><token>: <what>" naming `key`'s token (or `key`
  /// itself when absent).
  [[noreturn]] void Fail(const std::string& key, const std::string& what) const;

  /// Throws listing every entry no Get*/Has read (with `known` appended as
  /// "(known: ...)" when given).
  void RejectUnknown(std::string_view known = {}) const;
  /// The keys RejectUnknown would complain about right now.
  std::vector<std::string> UnknownKeys() const;

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  /// The entry for `key` (marked read), or null when absent.
  const Entry* Find(const std::string& key) const;
  /// The entry's value; throws when it is a bare key.
  const std::string& ValueOf(const Entry& entry) const;
  [[noreturn]] void Throw(const std::string& what) const;

  std::string context_;
  std::vector<Entry> entries_;
  mutable std::vector<bool> read_;
};

}  // namespace hs
