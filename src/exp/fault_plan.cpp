#include "exp/fault_plan.h"

#include <cstdlib>
#include <stdexcept>

#include "util/parse.h"

namespace hs {

namespace {

long long ParseNonNegative(const std::string& token, const std::string& value) {
  const std::optional<std::int64_t> parsed = ParseInt(value, 0);
  if (!parsed) {
    throw std::invalid_argument("fault plan: bad value in '" + token +
                                "' (want a non-negative integer)");
  }
  return *parsed;
}

}  // namespace

std::string FaultPlan::ToString() const {
  const FaultPlan defaults;
  std::string out;
  const auto append = [&out](const std::string& token) {
    if (!out.empty()) out += ';';
    out += token;
  };
  if (crash_before_cell >= 0) {
    append("crash-before-cell=" + std::to_string(crash_before_cell));
  }
  if (hang_at_cell >= 0) append("hang-at-cell=" + std::to_string(hang_at_cell));
  if (drop_every > 0) append("drop-every=" + std::to_string(drop_every));
  if (exit_code != defaults.exit_code) {
    append("exit-code=" + std::to_string(exit_code));
  }
  if (signal != defaults.signal) append("signal=" + std::to_string(signal));
  if (torn_final_line) append("torn-final-line");
  if (drop_conn_at_cell >= 0) {
    append("drop-conn-at-cell=" + std::to_string(drop_conn_at_cell));
  }
  if (kill_agent_at_cell >= 0) {
    append("kill-agent-at-cell=" + std::to_string(kill_agent_at_cell));
  }
  if (torn_frame_at_cell >= 0) {
    append("torn-frame-at-cell=" + std::to_string(torn_frame_at_cell));
  }
  if (stall_at_cell >= 0) append("stall-at-cell=" + std::to_string(stall_at_cell));
  if (attempts != defaults.attempts) append("attempts=" + std::to_string(attempts));
  return out;
}

FaultPlan ParseFaultPlan(const std::string& text) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t semi = text.find(';', pos);
    const std::string token =
        text.substr(pos, semi == std::string::npos ? std::string::npos : semi - pos);
    pos = semi == std::string::npos ? text.size() + 1 : semi + 1;
    if (token.empty()) continue;
    const std::size_t eq = token.find('=');
    const std::string key = token.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : token.substr(eq + 1);
    const bool has_value = eq != std::string::npos;
    if (key == "torn-final-line") {
      if (has_value) {
        throw std::invalid_argument("fault plan: '" + key + "' takes no value");
      }
      plan.torn_final_line = true;
      continue;
    }
    if (!has_value) {
      throw std::invalid_argument("fault plan: '" + token + "' needs '=<value>'");
    }
    if (key == "crash-before-cell") {
      plan.crash_before_cell = ParseNonNegative(token, value);
    } else if (key == "hang-at-cell") {
      plan.hang_at_cell = ParseNonNegative(token, value);
    } else if (key == "drop-every") {
      plan.drop_every = static_cast<int>(ParseNonNegative(token, value));
      if (plan.drop_every == 0) {
        throw std::invalid_argument("fault plan: drop-every must be >= 1");
      }
    } else if (key == "exit-code") {
      plan.exit_code = static_cast<int>(ParseNonNegative(token, value));
    } else if (key == "signal") {
      plan.signal = static_cast<int>(ParseNonNegative(token, value));
    } else if (key == "drop-conn-at-cell") {
      plan.drop_conn_at_cell = ParseNonNegative(token, value);
    } else if (key == "kill-agent-at-cell") {
      plan.kill_agent_at_cell = ParseNonNegative(token, value);
    } else if (key == "torn-frame-at-cell") {
      plan.torn_frame_at_cell = ParseNonNegative(token, value);
    } else if (key == "stall-at-cell") {
      plan.stall_at_cell = ParseNonNegative(token, value);
    } else if (key == "attempts") {
      plan.attempts = static_cast<int>(ParseNonNegative(token, value));
      if (plan.attempts == 0) {
        throw std::invalid_argument("fault plan: attempts must be >= 1");
      }
    } else {
      throw std::invalid_argument(
          "fault plan: unknown token '" + token +
          "' (known: crash-before-cell, hang-at-cell, drop-every, exit-code, "
          "signal, torn-final-line, drop-conn-at-cell, kill-agent-at-cell, "
          "torn-frame-at-cell, stall-at-cell, attempts)");
    }
  }
  return plan;
}

FaultPlan FaultPlanFromEnv() {
  const char* raw = std::getenv("HS_FAULT");
  if (raw == nullptr) return {};
  return ParseFaultPlan(raw);
}

}  // namespace hs
