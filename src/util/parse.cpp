#include "util/parse.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace hs {

namespace {

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string IntRange(std::int64_t min, std::int64_t max) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  if (min == kMin && max == kMax) return "want an integer";
  if (max == kMax) return "want an integer >= " + std::to_string(min);
  return "want an integer in [" + std::to_string(min) + ", " + std::to_string(max) + "]";
}

}  // namespace

std::optional<double> ParseDouble(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) return std::nullopt;
  return value;
}

std::optional<bool> ParseBool(std::string_view text) {
  if (text == "true" || text == "1" || text == "yes" || text == "on") return true;
  if (text == "false" || text == "0" || text == "no" || text == "off") return false;
  return std::nullopt;
}

std::string FmtExactDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", std::numeric_limits<double>::max_digits10,
                value);
  return buf;
}

std::string PercentEncode(std::string_view value, std::string_view special) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '%' || special.find(c) != std::string_view::npos) {
      const auto byte = static_cast<unsigned char>(c);
      out += '%';
      out += kHex[byte >> 4];
      out += kHex[byte & 0xF];
    } else {
      out += c;
    }
  }
  return out;
}

std::string PercentDecode(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (std::size_t i = 0; i < value.size(); ++i) {
    if (value[i] != '%') {
      out += value[i];
      continue;
    }
    if (i + 2 >= value.size()) {
      throw std::invalid_argument("truncated %-escape in '" + std::string(value) + "'");
    }
    const int hi = HexDigit(value[i + 1]);
    const int lo = HexDigit(value[i + 2]);
    if (hi < 0 || lo < 0) {
      throw std::invalid_argument("bad %-escape in '" + std::string(value) + "'");
    }
    out += static_cast<char>(hi * 16 + lo);
    i += 2;
  }
  return out;
}

KvToken ClassifyToken(std::string_view token, std::string_view key_prefix) {
  KvToken out;
  out.text = token;
  if (token.substr(0, key_prefix.size()) != key_prefix) return out;  // positional
  const std::string_view body = token.substr(key_prefix.size());
  const std::size_t eq = body.find('=');
  if (eq == std::string_view::npos) {
    out.kind = KvToken::Kind::kBare;
    out.key = body;
  } else {
    out.kind = KvToken::Kind::kKeyValue;
    out.key = body.substr(0, eq);
    out.value = body.substr(eq + 1);
  }
  return out;
}

std::vector<KvToken> Tokenize(std::string_view text, char sep,
                              std::string_view key_prefix) {
  std::vector<KvToken> tokens;
  for (;;) {
    const std::size_t at = text.find(sep);
    const std::string_view piece = text.substr(0, at);
    tokens.push_back(piece.empty() ? KvToken{} : ClassifyToken(piece, key_prefix));
    if (at == std::string_view::npos) return tokens;
    text.remove_prefix(at + 1);
  }
}

// --- KeyValues ---------------------------------------------------------------

void KeyValues::Add(const KvToken& token, bool decode) {
  std::optional<std::string> value;
  if (token.kind == KvToken::Kind::kKeyValue) {
    try {
      value = decode ? PercentDecode(token.value) : std::string(token.value);
    } catch (const std::invalid_argument& e) {
      Throw(std::string(token.text) + ": " + e.what());
    }
  }
  Add(std::string(token.key), std::move(value), std::string(token.text));
}

void KeyValues::Add(std::string key, std::optional<std::string> value, std::string token) {
  if (key.empty()) Throw("'" + token + "' has an empty key");
  for (const Entry& entry : entries_) {
    if (entry.key == key) Throw("'" + token + "' repeats key '" + key + "'");
  }
  entries_.push_back(Entry{std::move(key), std::move(value), std::move(token)});
  read_.push_back(false);
}

const KeyValues::Entry* KeyValues::Find(const std::string& key) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].key == key) {
      read_[i] = true;
      return &entries_[i];
    }
  }
  return nullptr;
}

const std::string& KeyValues::ValueOf(const Entry& entry) const {
  if (!entry.value) Throw(entry.token + ": needs '=<value>'");
  return *entry.value;
}

bool KeyValues::Has(const std::string& key) const { return Find(key) != nullptr; }

std::string KeyValues::GetString(const std::string& key, const std::string& def) const {
  const Entry* entry = Find(key);
  return entry == nullptr ? def : ValueOf(*entry);
}

std::int64_t KeyValues::GetInt(const std::string& key, std::int64_t def, std::int64_t min,
                               std::int64_t max) const {
  const Entry* entry = Find(key);
  if (entry == nullptr) return def;
  const std::optional<std::int64_t> value = ParseInt(ValueOf(*entry), min, max);
  if (!value) Fail(key, IntRange(min, max));
  return *value;
}

double KeyValues::GetDouble(const std::string& key, double def) const {
  const Entry* entry = Find(key);
  if (entry == nullptr) return def;
  const std::optional<double> value = ParseDouble(ValueOf(*entry));
  if (!value) Fail(key, "want a number");
  return *value;
}

bool KeyValues::GetBool(const std::string& key, bool def) const {
  const Entry* entry = Find(key);
  if (entry == nullptr) return def;
  if (!entry->value) return true;
  const std::optional<bool> value = ParseBool(*entry->value);
  if (!value) Fail(key, "want true/false, 1/0, yes/no or on/off");
  return *value;
}

bool KeyValues::GetFlag(const std::string& key) const {
  const Entry* entry = Find(key);
  if (entry == nullptr) return false;
  if (entry->value) Fail(key, "takes no value");
  return true;
}

void KeyValues::Fail(const std::string& key, const std::string& what) const {
  for (const Entry& entry : entries_) {
    if (entry.key == key) Throw(entry.token + ": " + what);
  }
  Throw(key + ": " + what);
}

std::vector<std::string> KeyValues::UnknownKeys() const {
  std::vector<std::string> unknown;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (!read_[i]) unknown.push_back(entries_[i].key);
  }
  return unknown;
}

void KeyValues::RejectUnknown(std::string_view known) const {
  std::string message;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (!read_[i]) message += " '" + entries_[i].token + "'";
  }
  if (message.empty()) return;
  message = "unknown" + message;
  if (!known.empty()) message += " (known: " + std::string(known) + ")";
  Throw(message);
}

void KeyValues::Throw(const std::string& what) const {
  throw std::invalid_argument(context_.empty() ? what : context_ + ": " + what);
}

}  // namespace hs
