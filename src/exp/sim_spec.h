// SimSpec: a declarative, validated, round-trippable description of one
// simulation run.
//
// One spec names everything a run needs — mechanism, ordering policy,
// scenario preset, advance-notice mix, horizon, seed, and config overrides
// — through the registries (MechanismRegistry, PolicyRegistry,
// ScenarioRegistry), so a new mechanism/policy/preset registered in one
// place is immediately addressable from every bench, example and test.
//
// Canonical string form (segments separated by '/'):
//
//   <mechanism>/<policy>/<mix>[/key=value]...
//
//   CUP&SPAA/FCFS/W5/seed=7
//   baseline/SJF/W2/preset=midsize/weeks=4/ckpt_scale=0.5
//   N&PAA/FCFS/W5/preset=swf/swf=%2Fdata%2Ftheta.swf
//
// The first three segments are positional (later ones may be omitted and
// default); every 'key=value' segment is either a field (preset, weeks,
// seed) or a registered config override (see KnownOverrides()). Segments
// follow the one key=value grammar of util/parse.h: values are
// percent-escaped ('/' as %2F, '%' as %25; Parse decodes any %XX as the
// wire does), while CLI flags and SetOverride take them verbatim.
// Parsing is strict: unknown mechanisms/policies/presets/mixes/keys,
// repeated keys and malformed values throw std::invalid_argument naming
// the token, and Parse(spec.ToString()) == spec.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/config.h"
#include "exp/scenario.h"
#include "util/cli.h"

namespace hs {

struct SimSpec {
  std::string mechanism = "baseline";  // MechanismRegistry name
  std::string policy = "FCFS";         // PolicyRegistry name
  std::string notice_mix = "W5";       // Table III preset (W1..W5)
  std::string preset = "paper";        // ScenarioRegistry name
  int weeks = 1;                       // trace horizon
  std::uint64_t seed = 1;              // scenario RNG seed
  /// Config/scenario overrides by registered key (see KnownOverrides()).
  /// Values keep their spelling so specs round-trip exactly.
  std::map<std::string, std::string> overrides;

  bool operator==(const SimSpec&) const = default;

  /// Canonical spec string; defaults are omitted. Parse(ToString()) == *this.
  std::string ToString() const;

  /// Parses a spec string; throws std::invalid_argument on anything
  /// unknown or malformed. Names are canonicalized via the registries.
  static SimSpec Parse(const std::string& text);

  /// Builds a spec from CLI flags: --spec=STRING is parsed first (if
  /// present), then --mechanism/--policy/--mix/--preset/--weeks/--seed and
  /// any registered override key given as a flag refine it. Throws on
  /// invalid values; callers should follow up with args.RejectUnknown().
  static SimSpec FromCli(const CliArgs& args);

  /// Empty when the spec is consistent; otherwise the violated constraint.
  std::string Validate() const;

  /// Sets an override after validating the key and value; throws on either.
  void SetOverride(const std::string& key, const std::string& value);

  // --- materialization -----------------------------------------------------

  /// The scenario for this spec: preset(weeks, mix) + scenario overrides.
  ScenarioConfig BuildScenario() const;

  /// The scheduler configuration: paper defaults for the mechanism, the
  /// spec's policy, + config overrides. Validated.
  HybridConfig BuildConfig() const;

  /// The fully labelled trace (deterministic in the spec).
  Trace BuildTrace() const;

  /// Cache key covering exactly the fields that determine BuildTrace():
  /// specs with equal ScenarioKey()s share a trace.
  std::string ScenarioKey() const;
};

/// One registered override key.
struct OverrideKey {
  std::string key;
  std::string help;
  /// A valid sample value (shown in --help text; the spec round-trip test
  /// loops the table and exercises every key through it, so a new key is
  /// covered the moment it is registered).
  std::string example;
  /// True when the key affects trace generation (ScenarioConfig), false
  /// when it tunes the scheduler (HybridConfig).
  bool scenario = false;
};

/// Every override key SimSpec accepts, in presentation order.
const std::vector<OverrideKey>& KnownOverrides();

}  // namespace hs
