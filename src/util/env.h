// Environment-variable knobs shared by the bench binaries so that the whole
// harness can be scaled from quick smoke runs to paper-scale sweeps without
// recompiling (HYBRIDSCHED_WEEKS, HYBRIDSCHED_SEEDS, HYBRIDSCHED_FULL).
#pragma once

#include <cstdint>
#include <string>

namespace hs {

/// Reads an integer env var (ParseInt's whole-string grammar: "2x" is not
/// 2); returns `def` when unset or empty. Throws std::invalid_argument
/// naming `NAME=value` when the value does not parse, so a typo never
/// silently runs at the default scale.
std::int64_t EnvInt(const char* name, std::int64_t def);

/// Reads a string env var; returns `def` when unset.
std::string EnvString(const char* name, const std::string& def);

/// Scale shared by bench binaries. The default already matches the paper's
/// horizon (one year); HYBRIDSCHED_FULL additionally averages ten traces per
/// cell as the paper does.
struct BenchScale {
  int weeks = 52;   // trace horizon per run
  int seeds = 5;    // traces averaged per experiment cell
  bool full = false;  // HYBRIDSCHED_FULL=1: 52 weeks x 10 seeds (paper scale)
};

/// Resolves the bench scale from the environment.
BenchScale ResolveBenchScale();

}  // namespace hs
