#include "exp/fault_plan.h"

#include <climits>
#include <cstdlib>

#include "util/parse.h"

namespace hs {

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
  KeyValues tokens("fault plan");
  for (const KvToken& token : Tokenize(text, ';')) {
    if (!token.text.empty()) tokens.Add(token, /*decode=*/false);
  }
  const auto cell = [&tokens](const char* key) { return tokens.GetInt(key, -1, 0); };
  const auto count = [&tokens](const char* key, int def, int min) {
    return static_cast<int>(tokens.GetInt(key, def, min, INT_MAX));
  };
  FaultPlan plan;
  plan.crash_before_cell = cell("crash-before-cell");
  plan.hang_at_cell = cell("hang-at-cell");
  plan.drop_every = count("drop-every", plan.drop_every, 1);
  plan.exit_code = count("exit-code", plan.exit_code, 0);
  plan.signal = count("signal", plan.signal, 0);
  plan.torn_final_line = tokens.GetFlag("torn-final-line");
  plan.drop_conn_at_cell = cell("drop-conn-at-cell");
  plan.kill_agent_at_cell = cell("kill-agent-at-cell");
  plan.torn_frame_at_cell = cell("torn-frame-at-cell");
  plan.stall_at_cell = cell("stall-at-cell");
  plan.attempts = count("attempts", plan.attempts, 1);
  tokens.RejectUnknown(
      "crash-before-cell, hang-at-cell, drop-every, exit-code, signal, "
      "torn-final-line, drop-conn-at-cell, kill-agent-at-cell, torn-frame-at-cell, "
      "stall-at-cell, attempts");
  return plan;
}

FaultPlan FaultPlanFromEnv() {
  const char* raw = std::getenv("HS_FAULT");
  if (raw == nullptr) return {};
  return ParseFaultPlan(raw);
}

}  // namespace hs
