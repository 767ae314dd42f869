#include "util/cli.h"

#include <charconv>
#include <stdexcept>

#include "util/parse.h"

namespace hs {

namespace {

[[noreturn]] void BadValue(const std::string& key, const std::string& value,
                           const char* want) {
  throw std::invalid_argument("--" + key + "=" + value + ": want " + want);
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        flags_[arg.substr(2)] = "true";
      } else {
        flags_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

const std::string* CliArgs::Find(const std::string& key) const {
  recognized_.insert(key);
  const auto it = flags_.find(key);
  return it == flags_.end() ? nullptr : &it->second;
}

bool CliArgs::Has(const std::string& key) const { return Find(key) != nullptr; }

std::string CliArgs::GetString(const std::string& key, const std::string& def) const {
  const std::string* text = Find(key);
  return text == nullptr ? def : *text;
}

std::int64_t CliArgs::GetInt(const std::string& key, std::int64_t def) const {
  const std::string* text = Find(key);
  if (text == nullptr) return def;
  const std::optional<std::int64_t> value = ParseInt(*text);
  if (!value) BadValue(key, *text, "an integer");
  return *value;
}

double CliArgs::GetDouble(const std::string& key, double def) const {
  const std::string* text = Find(key);
  if (text == nullptr) return def;
  double value = 0.0;
  const char* end = text->data() + text->size();
  const auto [ptr, ec] = std::from_chars(text->data(), end, value);
  if (ec != std::errc() || ptr != end) BadValue(key, *text, "a number");
  return value;
}

bool CliArgs::GetBool(const std::string& key, bool def) const {
  const std::string* text = Find(key);
  if (text == nullptr) return def;
  if (*text == "true" || *text == "1" || *text == "yes") return true;
  if (*text == "false" || *text == "0" || *text == "no") return false;
  BadValue(key, *text, "true/false, 1/0 or yes/no");
}

std::vector<std::string> CliArgs::UnknownFlags() const {
  std::vector<std::string> unknown;
  for (const auto& [key, value] : flags_) {
    if (recognized_.count(key) == 0) unknown.push_back(key);
  }
  return unknown;
}

void CliArgs::RejectUnknown() const {
  const std::vector<std::string> unknown = UnknownFlags();
  if (unknown.empty()) return;
  std::string message = "unknown flag(s):";
  for (const std::string& key : unknown) message += " --" + key;
  throw std::invalid_argument(message);
}

}  // namespace hs
