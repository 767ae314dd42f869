#include "util/env.h"

#include <cstdlib>
#include <stdexcept>

#include "util/parse.h"

namespace hs {

std::int64_t EnvInt(const char* name, std::int64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  const std::optional<std::int64_t> parsed = ParseInt(v);
  if (!parsed) {
    throw std::invalid_argument(std::string("malformed ") + name + "=" + v +
                                " (expected an integer)");
  }
  return *parsed;
}

std::string EnvString(const char* name, const std::string& def) {
  const char* v = std::getenv(name);
  return (v == nullptr) ? def : std::string(v);
}

BenchScale ResolveBenchScale() {
  BenchScale scale;
  scale.full = EnvInt("HYBRIDSCHED_FULL", 0) != 0;
  if (scale.full) {
    scale.weeks = 52;
    scale.seeds = 10;
  }
  scale.weeks = static_cast<int>(EnvInt("HYBRIDSCHED_WEEKS", scale.weeks));
  scale.seeds = static_cast<int>(EnvInt("HYBRIDSCHED_SEEDS", scale.seeds));
  if (scale.weeks < 1) scale.weeks = 1;
  if (scale.seeds < 1) scale.seeds = 1;
  return scale;
}

}  // namespace hs
