// Strict whole-string integer parsing for every text input that carries
// one: CLI flags, unit headers, shard files, host lists, HS_FAULT plans.
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

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

}  // namespace hs
