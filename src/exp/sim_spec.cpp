#include "exp/sim_spec.h"

#include <cctype>
#include <climits>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string_view>

#include "core/mechanism.h"
#include "sched/policy.h"

namespace hs {

namespace {

// --- override values -------------------------------------------------------

/// One override value inside the bag it arrived in (a spec string's
/// segments, CLI flags, or a single SetOverride pair), so a bad value's
/// error names its token as the caller wrote it (`nodes=+7`, `--load=3`).
struct OverrideValue {
  const KeyValues& bag;
  const std::string& key;

  std::int64_t Int(std::int64_t min, std::int64_t max = INT_MAX) const {
    return bag.GetInt(key, 0, min, max);
  }
  double Double() const { return bag.GetDouble(key, 0.0); }
  bool Bool() const { return bag.GetBool(key, false); }
  std::string String() const { return bag.GetString(key, ""); }
  void Require(bool ok, const char* constraint) const {
    if (!ok) bag.Fail(key, constraint);
  }
};

// --- the override table -----------------------------------------------------

struct OverrideEntry {
  OverrideKey info;
  /// Applies the value to whichever target matches info.scenario; the other
  /// pointer is null. Throws std::invalid_argument on a bad value.
  std::function<void(const OverrideValue& value, ScenarioConfig*, HybridConfig*)> apply;
};

const std::vector<OverrideEntry>& OverrideTable() {
  static const std::vector<OverrideEntry>* table = [] {
    auto* t = new std::vector<OverrideEntry>;
    const auto scenario = [t](const char* key, const char* help, const char* example,
                              std::function<void(const OverrideValue&, ScenarioConfig&)> fn) {
      t->push_back({{key, help, example, true},
                    [fn = std::move(fn)](const OverrideValue& v, ScenarioConfig* s,
                                         HybridConfig*) { fn(v, *s); }});
    };
    const auto config = [t](const char* key, const char* help, const char* example,
                            std::function<void(const OverrideValue&, HybridConfig&)> fn) {
      t->push_back({{key, help, example, false},
                    [fn = std::move(fn)](const OverrideValue& v, ScenarioConfig*,
                                         HybridConfig* c) { fn(v, *c); }});
    };

    scenario("nodes", "machine size (also caps the largest job)", "512",
             [](const OverrideValue& v, ScenarioConfig& s) {
               const int nodes = static_cast<int>(v.Int(1));
               s.theta.num_nodes = nodes;
               s.theta.projects.max_job_size = nodes;
             });
    scenario("projects", "number of projects in the synthetic workload", "32",
             [](const OverrideValue& v, ScenarioConfig& s) {
               s.theta.projects.num_projects = static_cast<int>(v.Int(1));
             });
    scenario("load", "offered-load calibration target", "0.8",
             [](const OverrideValue& v, ScenarioConfig& s) {
               const double load = v.Double();
               v.Require(load > 0.0 && load <= 2.0, "must be in (0, 2]");
               s.theta.target_load = load;
             });
    scenario("od_share", "share of projects submitting on-demand jobs", "0.25",
             [](const OverrideValue& v, ScenarioConfig& s) {
               const double share = v.Double();
               v.Require(share >= 0.0 && share <= 1.0, "must be in [0, 1]");
               s.types.on_demand_project_share = share;
             });
    scenario("rigid_share", "share of projects submitting rigid jobs", "0.5",
             [](const OverrideValue& v, ScenarioConfig& s) {
               const double share = v.Double();
               v.Require(share >= 0.0 && share <= 1.0, "must be in [0, 1]");
               s.types.rigid_project_share = share;
             });
    scenario("malleable_min", "malleable minimum size as a fraction of the request", "0.5",
             [](const OverrideValue& v, ScenarioConfig& s) {
               const double frac = v.Double();
               v.Require(frac > 0.0 && frac <= 1.0, "must be in (0, 1]");
               s.types.malleable_min_frac = frac;
             });

    config("ckpt_scale", "checkpoint interval as a multiple of the Daly optimum", "0.5",
           [](const OverrideValue& v, HybridConfig& c) {
             const double scale = v.Double();
             v.Require(scale > 0.0, "must be > 0");
             c.engine.checkpoint.interval_scale = scale;
           });
    config("warning", "malleable drain warning, seconds", "120",
           [](const OverrideValue& v, HybridConfig& c) {
             c.engine.drain_warning = v.Int(0, kNever);
           });
    config("backfill", "backfill jobs onto reserved nodes (bool)", "true",
           [](const OverrideValue& v, HybridConfig& c) { c.backfill_on_reserved = v.Bool(); });
    config("expand", "opportunistically expand malleable jobs (bool)", "false",
           [](const OverrideValue& v, HybridConfig& c) {
             c.opportunistic_expand = v.Bool();
           });
    config("hold", "hold returned nodes for preempted lenders (bool)", "true",
           [](const OverrideValue& v, HybridConfig& c) { c.hold_returned_nodes = v.Bool(); });
    config("partition", "static on-demand partition size, nodes (0 = off)", "256",
           [](const OverrideValue& v, HybridConfig& c) {
             c.static_od_partition = static_cast<int>(v.Int(0));
           });
    config("timeout", "reservation timeout after the predicted arrival, seconds", "300",
           [](const OverrideValue& v, HybridConfig& c) {
             c.reservation_timeout = v.Int(0, kNever);
           });
    config("instant", "instant-start threshold, seconds", "60",
           [](const OverrideValue& v, HybridConfig& c) {
             c.instant_threshold = v.Int(0, kNever);
           });
    scenario("swf", "SWF trace file to replay (preset=swf; '/' written as %2F in specs)", "/data/theta.swf",
             [](const OverrideValue& v, ScenarioConfig& s) {
               s.swf_path = v.String();
               v.Require(!s.swf_path.empty(), "must be a file path");
             });
    config("failures", "inject hardware failures (bool)", "true",
           [](const OverrideValue& v, HybridConfig& c) {
             c.engine.inject_failures = v.Bool();
           });
    config("mtbf_days", "per-node mean time between failures, days", "7.5",
           [](const OverrideValue& v, HybridConfig& c) {
             const double days = v.Double();
             // The bound keeps days * kDay inside the simulated clock.
             v.Require(days > 0.0 && days <= 1e9, "must be in (0, 1e9]");
             c.engine.failure_node_mtbf = static_cast<SimTime>(days * kDay);
           });
    // Workload-generator knobs (workload/generators.h): modulators compose
    // with any preset, so these are plain scenario keys — `preset=burst`
    // merely changes their defaults.
    scenario("burst_mult", "storm arrival-rate multiplier (1 = no storms)", "6",
             [](const OverrideValue& v, ScenarioConfig& s) {
               const double mult = v.Double();
               v.Require(mult >= 1.0, "must be >= 1");
               s.gen.burst.mult = mult;
             });
    scenario("burst_period_h", "mean storm-free gap between storm windows, hours", "12",
             [](const OverrideValue& v, ScenarioConfig& s) {
               const double hours = v.Double();
               v.Require(hours > 0.0, "must be > 0");
               s.gen.burst.period = static_cast<SimTime>(std::llround(hours * kHour));
             });
    scenario("burst_len_h", "storm window length, hours", "1",
             [](const OverrideValue& v, ScenarioConfig& s) {
               const double hours = v.Double();
               v.Require(hours > 0.0, "must be > 0");
               s.gen.burst.duration = static_cast<SimTime>(std::llround(hours * kHour));
             });
    scenario("diurnal_amp", "diurnal/weekly cycle modulation depth", "0.9",
             [](const OverrideValue& v, ScenarioConfig& s) {
               const double amp = v.Double();
               v.Require(amp >= 0.0 && amp < 1.0, "must be in [0, 1)");
               s.gen.diurnal.amplitude = amp;
             });
    scenario("weekend_factor", "weekend arrival damping factor", "0.4",
             [](const OverrideValue& v, ScenarioConfig& s) {
               const double factor = v.Double();
               v.Require(factor > 0.0 && factor <= 1.0, "must be in (0, 1]");
               s.gen.diurnal.weekend_factor = factor;
             });
    scenario("ai_frac", "AI-task share of total offered demand", "0.3",
             [](const OverrideValue& v, ScenarioConfig& s) {
               const double frac = v.Double();
               v.Require(frac >= 0.0 && frac < 1.0, "must be in [0, 1)");
               s.gen.ai.frac = frac;
             });
    scenario("ai_swarm", "tasks per AI swarm", "48",
             [](const OverrideValue& v, ScenarioConfig& s) {
               s.gen.ai.swarm = static_cast<int>(v.Int(1));
             });
    scenario("ai_size", "largest AI task, nodes", "256",
             [](const OverrideValue& v, ScenarioConfig& s) {
               s.gen.ai.max_size = static_cast<int>(v.Int(1));
             });
    return t;
  }();
  return *table;
}

const OverrideEntry& FindOverride(const std::string& key) {
  for (const OverrideEntry& entry : OverrideTable()) {
    if (entry.info.key == key) return entry;
  }
  std::string known;
  for (const OverrideEntry& entry : OverrideTable()) {
    if (!known.empty()) known += ", ";
    known += entry.info.key;
  }
  throw std::invalid_argument("unknown override key '" + key + "' (known: " + known +
                              ")");
}

// --- name canonicalization --------------------------------------------------

std::string CanonicalMixName(const std::string& name) {
  std::string upper = name;
  for (char& c : upper) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  try {
    return NoticeMixByName(upper).name;
  } catch (const std::out_of_range&) {
    std::string known;
    for (const NoticeMix& mix : PaperNoticeMixes()) {
      if (!known.empty()) known += ", ";
      known += mix.name;
    }
    throw std::invalid_argument("unknown notice mix '" + name + "' (known: " + known +
                                ")");
  }
}

/// Spec-string values are percent-escaped (util/parse.h): '/' as %2F and
/// '%' as %25. Encoding is the identity for every value without those
/// characters, keeping existing specs byte-stable.
constexpr std::string_view kSpecEscapes = "/";

/// Validates `key`'s value in `values` against scratch targets (so a bad
/// spec fails at parse time, not mid-experiment) and stores its spelling.
void ApplyOverride(SimSpec& spec, const KeyValues& values, const std::string& key) {
  const OverrideEntry& entry = FindOverride(key);
  ScenarioConfig scratch_scenario;
  HybridConfig scratch_config;
  entry.apply(OverrideValue{values, key}, &scratch_scenario, &scratch_config);
  spec.overrides[key] = values.GetString(key, "");
}

/// The stored overrides as a bag, for materializing them.
KeyValues OverrideBag(const std::map<std::string, std::string>& overrides) {
  KeyValues bag;
  for (const auto& [key, value] : overrides) bag.Add(key, value, key + "=" + value);
  return bag;
}

std::string Trimmed(const std::string& text) {
  std::size_t begin = 0, end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return text.substr(begin, end - begin);
}

bool IEqualsPrefix(const std::string& text, const char* prefix) {
  std::size_t i = 0;
  for (; prefix[i] != '\0'; ++i) {
    if (i >= text.size()) return false;
    if (std::tolower(static_cast<unsigned char>(text[i])) !=
        std::tolower(static_cast<unsigned char>(prefix[i]))) {
      return false;
    }
  }
  return text.size() == i || text[i] == '/';
}

}  // namespace

const std::vector<OverrideKey>& KnownOverrides() {
  static const std::vector<OverrideKey>* keys = [] {
    auto* k = new std::vector<OverrideKey>;
    for (const OverrideEntry& entry : OverrideTable()) k->push_back(entry.info);
    return k;
  }();
  return *keys;
}

std::string SimSpec::ToString() const {
  std::string out = mechanism + "/" + policy + "/" + notice_mix;
  if (preset != "paper") out += "/preset=" + preset;
  if (weeks != 1) out += "/weeks=" + std::to_string(weeks);
  if (seed != 1) out += "/seed=" + std::to_string(seed);
  for (const auto& [key, value] : overrides) {
    out += "/" + key + "=" + PercentEncode(value, kSpecEscapes);
  }
  return out;
}

SimSpec SimSpec::Parse(const std::string& text) {
  const std::string trimmed = Trimmed(text);
  if (trimmed.empty()) throw std::invalid_argument("empty spec");

  SimSpec spec;
  std::size_t positional = 0;
  std::string_view rest = trimmed;
  // The baseline's display name "FCFS/EASY" contains the segment separator;
  // accept it as the leading mechanism token.
  if (IEqualsPrefix(trimmed, "FCFS/EASY")) {
    spec.mechanism = "baseline";
    positional = 1;
    if (rest.size() == 9) return spec;
    rest.remove_prefix(10);
  }
  KeyValues values;
  for (const KvToken& token : Tokenize(rest, '/')) {
    if (token.text.empty()) {
      throw std::invalid_argument("empty segment in spec '" + trimmed + "'");
    }
    if (token.kind == KvToken::Kind::kKeyValue) {
      values.Add(token, /*decode=*/true);
      continue;
    }
    const std::string name(token.text);
    if (!values.entries().empty()) {
      throw std::invalid_argument("positional segment '" + name +
                                  "' after key=value segments in '" + trimmed + "'");
    }
    switch (positional++) {
      case 0: spec.mechanism = CanonicalMechanismName(name); break;
      case 1: spec.policy = PolicyRegistry().Canonical(name); break;
      case 2: spec.notice_mix = CanonicalMixName(name); break;
      default:
        throw std::invalid_argument("too many positional segments in spec '" + trimmed +
                                    "' (expected mechanism/policy/mix)");
    }
  }
  if (values.Has("preset")) {
    spec.preset = ScenarioRegistry().Canonical(values.GetString("preset", ""));
  }
  spec.weeks = static_cast<int>(values.GetInt("weeks", spec.weeks, 1, INT_MAX));
  spec.seed = static_cast<std::uint64_t>(values.GetInt("seed", 1, 0));
  for (const KeyValues::Entry& entry : values.entries()) {
    if (entry.key != "preset" && entry.key != "weeks" && entry.key != "seed") {
      ApplyOverride(spec, values, entry.key);
    }
  }
  return spec;
}

SimSpec SimSpec::FromCli(const CliArgs& args) {
  SimSpec spec;
  if (args.Has("spec")) spec = Parse(args.GetString("spec", ""));
  if (args.Has("mechanism")) {
    spec.mechanism = CanonicalMechanismName(args.GetString("mechanism", spec.mechanism));
  }
  if (args.Has("policy")) {
    spec.policy = PolicyRegistry().Canonical(args.GetString("policy", spec.policy));
  }
  if (args.Has("mix")) {
    spec.notice_mix = CanonicalMixName(args.GetString("mix", spec.notice_mix));
  }
  if (args.Has("preset")) {
    spec.preset = ScenarioRegistry().Canonical(args.GetString("preset", spec.preset));
  }
  spec.weeks = static_cast<int>(args.GetInt("weeks", spec.weeks, 1, INT_MAX));
  spec.seed = static_cast<std::uint64_t>(
      args.GetInt("seed", static_cast<std::int64_t>(spec.seed), 0));
  for (const OverrideKey& key : KnownOverrides()) {
    if (args.Has(key.key)) ApplyOverride(spec, args, key.key);
  }
  return spec;
}

void SimSpec::SetOverride(const std::string& key, const std::string& value) {
  KeyValues values;
  values.Add(key, value, key + "=" + value);
  ApplyOverride(*this, values, key);
}

std::string SimSpec::Validate() const {
  try {
    if (weeks < 1) return "weeks must be >= 1";
    (void)MechanismRegistry().Get(mechanism);
    (void)PolicyRegistry().Get(policy);
    (void)ScenarioRegistry().Get(preset);
    (void)CanonicalMixName(notice_mix);
    (void)BuildScenario();
    const HybridConfig config = BuildConfig();
    const std::string error = config.Validate();
    if (!error.empty()) return error;
  } catch (const std::exception& e) {
    return e.what();
  }
  return {};
}

ScenarioConfig SimSpec::BuildScenario() const {
  ScenarioConfig scenario = MakeScenario(preset, weeks, CanonicalMixName(notice_mix));
  const KeyValues values = OverrideBag(overrides);
  for (const auto& [key, value] : overrides) {
    const OverrideEntry& entry = FindOverride(key);
    if (entry.info.scenario) entry.apply(OverrideValue{values, key}, &scenario, nullptr);
  }
  const std::string error = ValidateScenario(scenario);
  if (!error.empty()) throw std::invalid_argument(error);
  return scenario;
}

HybridConfig SimSpec::BuildConfig() const {
  HybridConfig config = MakePaperConfig(ParseMechanism(mechanism));
  config.engine.policy = PolicyRegistry().Canonical(policy);
  const KeyValues values = OverrideBag(overrides);
  for (const auto& [key, value] : overrides) {
    const OverrideEntry& entry = FindOverride(key);
    if (!entry.info.scenario) entry.apply(OverrideValue{values, key}, nullptr, &config);
  }
  return config;
}

Trace SimSpec::BuildTrace() const { return BuildScenarioTrace(BuildScenario(), seed); }

std::string SimSpec::ScenarioKey() const {
  std::string key = preset + "|" + notice_mix + "|w" + std::to_string(weeks) + "|s" +
                    std::to_string(seed);
  for (const auto& [name, value] : overrides) {
    if (FindOverride(name).info.scenario) key += "|" + name + "=" + value;
  }
  return key;
}

}  // namespace hs
