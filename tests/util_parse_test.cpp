// The one key=value grammar (util/parse.h): value parsers, the percent
// codec, the tokenizer and the checked-getter bag, then a seeded mutation
// run over every surface built on it. A surface may accept a mutated input
// or reject it with std::invalid_argument; any other exception fails here,
// and a crash or sanitizer report fails the process.
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "exp/fault_plan.h"
#include "exp/shard_io.h"
#include "exp/sim_spec.h"
#include "exp/transport.h"
#include "service/protocol.h"
#include "util/cli.h"
#include "util/parse.h"

namespace hs {
namespace {

// --- value parsers and codec ---------------------------------------------------

TEST(ParseTest, DoublesAreWholeStringAndFinite) {
  EXPECT_EQ(ParseDouble("0.5"), 0.5);
  EXPECT_EQ(ParseDouble("-2.5e-3"), -2.5e-3);
  EXPECT_EQ(ParseDouble("7"), 7.0);
  for (const char* bad : {"", " 0.5", "0.5 ", "+0.5", "0.5s", "1e999", "inf", "nan", "-"}) {
    EXPECT_EQ(ParseDouble(bad), std::nullopt) << "'" << bad << "'";
  }
  for (const double value : {0.0, 1.0 / 3.0, 0.8431372549019608, 1e-17, -2.5e300}) {
    EXPECT_EQ(ParseDouble(FmtExactDouble(value)), value);
  }
}

TEST(ParseTest, BooleansAreTheSpecSet) {
  for (const char* yes : {"true", "1", "yes", "on"}) EXPECT_EQ(ParseBool(yes), true);
  for (const char* no : {"false", "0", "no", "off"}) EXPECT_EQ(ParseBool(no), false);
  for (const char* bad : {"", "TRUE", "2", "y", " on"}) {
    EXPECT_EQ(ParseBool(bad), std::nullopt) << "'" << bad << "'";
  }
}

TEST(ParseTest, PercentCodecEscapesTheCallersSet) {
  EXPECT_EQ(PercentEncode("/data/a b%", "/"), "%2Fdata%2Fa b%25");
  EXPECT_EQ(PercentEncode("/data/a b%", " \n"), "/data/a%20b%25");
  EXPECT_EQ(PercentEncode("plain", "/"), "plain");
  EXPECT_EQ(PercentDecode("%2fdata%2Fa%20b%25"), "/data/a b%");
  EXPECT_THROW(PercentDecode("100%"), std::invalid_argument);
  EXPECT_THROW(PercentDecode("%2"), std::invalid_argument);
  EXPECT_THROW(PercentDecode("%zz"), std::invalid_argument);
}

// --- tokenizer and bag ---------------------------------------------------------

TEST(ParseTest, TokenizerClassifiesAndKeepsEmptyPieces) {
  const std::vector<KvToken> tokens = Tokenize("CUA&SPAA/seed=7//flag", '/');
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].kind, KvToken::Kind::kBare);
  EXPECT_EQ(tokens[0].key, "CUA&SPAA");
  EXPECT_EQ(tokens[1].kind, KvToken::Kind::kKeyValue);
  EXPECT_EQ(tokens[1].key, "seed");
  EXPECT_EQ(tokens[1].value, "7");
  EXPECT_TRUE(tokens[2].text.empty());
  EXPECT_EQ(tokens[3].kind, KvToken::Kind::kBare);

  EXPECT_EQ(ClassifyToken("input.swf", "--").kind, KvToken::Kind::kPositional);
  EXPECT_EQ(ClassifyToken("--verbose", "--").key, "verbose");
  const KvToken flag = ClassifyToken("--out=a=b", "--");
  EXPECT_EQ(flag.kind, KvToken::Kind::kKeyValue);
  EXPECT_EQ(flag.key, "out");
  EXPECT_EQ(flag.value, "a=b");
  EXPECT_EQ(flag.text, "--out=a=b");
}

TEST(ParseTest, BagErrorsNameTheTokenAsWritten) {
  const auto message = [](auto fn) {
    try {
      fn();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("(accepted)");
  };
  KeyValues bag("ctx");
  for (const KvToken& token : Tokenize("size=%2B7 load=0.5x mode=maybe cells=9 solo", ' ')) {
    bag.Add(token, /*decode=*/true);
  }
  EXPECT_EQ(message([&] { bag.GetInt("size", 0); }), "ctx: size=%2B7: want an integer");
  EXPECT_EQ(message([&] { bag.GetDouble("load", 0.0); }), "ctx: load=0.5x: want a number");
  EXPECT_NE(message([&] { bag.GetBool("mode", false); }).find("mode=maybe"),
            std::string::npos);
  EXPECT_EQ(message([&] { bag.GetInt("cells", 0, 0, 8); }),
            "ctx: cells=9: want an integer in [0, 8]");
  EXPECT_EQ(message([&] { bag.GetString("solo", ""); }), "ctx: solo: needs '=<value>'");
  EXPECT_TRUE(bag.GetFlag("solo"));
  EXPECT_EQ(message([&] { bag.GetFlag("cells"); }), "ctx: cells=9: takes no value");
  EXPECT_EQ(message([&] { bag.Add(ClassifyToken("cells=1"), false); }),
            "ctx: 'cells=1' repeats key 'cells'");
  EXPECT_EQ(message([&] { bag.Add(ClassifyToken("=1"), false); }),
            "ctx: '=1' has an empty key");
  EXPECT_NE(message([&] { bag.Add(ClassifyToken("x=%zz"), true); }).find("x=%zz"),
            std::string::npos);
}

TEST(ParseTest, RejectUnknownListsUnreadTokens) {
  KeyValues bag;
  for (const KvToken& token : Tokenize("weeks=4;seeed=3", ';')) bag.Add(token, false);
  EXPECT_EQ(bag.GetInt("weeks", 0), 4);
  (void)bag.Has("seed");  // probing an absent key does not excuse a typo
  EXPECT_EQ(bag.UnknownKeys(), std::vector<std::string>{"seeed"});
  try {
    bag.RejectUnknown("weeks, seed");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "unknown 'seeed=3' (known: weeks, seed)");
  }
}

TEST(ParseTest, EverySurfaceRejectsRepeatedKeys) {
  const char* argv[] = {"prog", "--weeks=1", "--weeks=2"};
  EXPECT_THROW(CliArgs(3, argv), std::invalid_argument);
  EXPECT_THROW(Request::Parse("advance by=1 by=2"), std::invalid_argument);
  EXPECT_THROW(SimSpec::Parse("baseline/FCFS/W5/seed=1/seed=2"), std::invalid_argument);
  EXPECT_THROW(ParseFaultPlan("drop-every=2;drop-every=3"), std::invalid_argument);
  EXPECT_THROW(ParseUnitHeader("unit cells=1 cells=2"), std::invalid_argument);
}

TEST(ParseTest, SpecValuesAreStrictAndDecodeLikeTheWire) {
  for (const char* bad : {"nodes=+7", "load= 0.5", "weeks=1.0", "seed=-1",
                          "ckpt_scale=inf", "backfill=TRUE", "swf=%2", "mtbf_days=1e300"}) {
    EXPECT_THROW(SimSpec::Parse(std::string("baseline/FCFS/W5/") + bad),
                 std::invalid_argument)
        << bad;
  }
  EXPECT_EQ(SimSpec::Parse("baseline/FCFS/W5/swf=%2Fa%20b").overrides.at("swf"), "/a b");
  EXPECT_TRUE(SimSpec::Parse("baseline/FCFS/W5/backfill=off").BuildConfig()
                  .backfill_on_reserved == false);
}

TEST(ParseTest, UnitHeaderRoundTrips) {
  const UnitHeader header{3, 2, 17, 4};
  EXPECT_EQ(FormatUnitHeader(header), "unit origin=3 attempt=2 cells=17 threads=4");
  const UnitHeader parsed = ParseUnitHeader(FormatUnitHeader(header));
  EXPECT_EQ(parsed.origin, 3);
  EXPECT_EQ(parsed.attempt, 2);
  EXPECT_EQ(parsed.cells, 17);
  EXPECT_EQ(parsed.threads, 4);
  EXPECT_EQ(FormatUnitHeader({0, 1, 1, 0}), "unit origin=0 attempt=1 cells=1");
  EXPECT_THROW(ParseUnitHeader("unit origin=0"), std::invalid_argument);
  EXPECT_THROW(ParseUnitHeader("units cells=1"), std::invalid_argument);
  EXPECT_THROW(ParseUnitHeader("unit cells=1 colour=red"), std::invalid_argument);
}

// --- seeded mutation run -------------------------------------------------------

/// Byte flips, truncations and splices of valid inputs, from a fixed seed.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string Next(const std::vector<std::string>& corpus) {
    std::string text = Pick(corpus);
    const int edits = 1 + static_cast<int>(rng_() % 3);
    for (int i = 0; i < edits; ++i) {
      switch (rng_() % 3) {
        case 0:  // flip one byte, to grammar punctuation half the time
          if (!text.empty()) text[rng_() % text.size()] = Byte();
          break;
        case 1:  // truncate
          text.resize(text.empty() ? 0 : rng_() % text.size());
          break;
        default: {  // splice a prefix of this onto a suffix of another
          const std::string other = Pick(corpus);
          text = text.substr(0, text.empty() ? 0 : rng_() % (text.size() + 1)) +
                 other.substr(other.empty() ? 0 : rng_() % (other.size() + 1));
        }
      }
    }
    return text;
  }

 private:
  const std::string& Pick(const std::vector<std::string>& corpus) {
    return corpus[rng_() % corpus.size()];
  }
  char Byte() {
    static constexpr char kPunctuation[] = "=/;% +-.&0123456789eE\n\t";
    if (rng_() % 2 == 0) return kPunctuation[rng_() % (sizeof(kPunctuation) - 1)];
    return static_cast<char>(rng_() % 256);
  }

  std::mt19937_64 rng_;
};

/// Runs `parse` on `runs` mutants of `corpus`; only a clean parse or
/// std::invalid_argument is allowed.
template <typename Parse>
void FuzzSurface(const char* surface, const std::vector<std::string>& corpus, Parse parse) {
  Mutator mutator(20240611);
  constexpr int kRuns = 1500;
  for (const std::string& valid : corpus) {
    EXPECT_NO_THROW(parse(valid)) << surface << ": '" << valid << "'";
  }
  for (int i = 0; i < kRuns; ++i) {
    const std::string input = mutator.Next(corpus);
    try {
      parse(input);
    } catch (const std::invalid_argument&) {
      // A named rejection is the expected outcome for most mutants.
    } catch (const std::exception& e) {
      ADD_FAILURE() << surface << ": '" << input << "' threw a non-invalid_argument: "
                    << e.what();
    }
  }
}

TEST(ParseMutationTest, SpecStrings) {
  FuzzSurface("SimSpec::Parse",
              {"CUP&SPAA/FCFS/W5/seed=7",
               "baseline/SJF/W2/preset=midsize/weeks=4/ckpt_scale=0.5",
               "N&PAA/FCFS/W5/preset=swf/swf=%2Fdata%2Ftheta%252.swf",
               "CUA&SPAA/SJF/W2/preset=tiny/weeks=2/seed=9/ckpt_scale=0.5/partition=64/"
               "backfill=0/od_share=0.2/nodes=256/load=0.8/warning=120",
               "FCFS/EASY/FCFS/W5/failures=1/mtbf_days=7.5/timeout=300/instant=60",
               "baseline/FCFS/W5/preset=burst/burst_mult=6/burst_period_h=12/"
               "burst_len_h=1/diurnal_amp=0.9/weekend_factor=0.4/ai_frac=0.3/"
               "ai_swarm=48/ai_size=256/expand=false/hold=on"},
              [](const std::string& text) { (void)SimSpec::Parse(text); });
}

TEST(ParseMutationTest, WireRequestsAndJobFields) {
  FuzzSurface("Request::Parse+ParseJobFields",
              {"submit class=od size=128 submit=+60 compute=3600 estimate=4000 setup=30 "
               "notice=+10 predicted=+60 project=3",
               "submit at=5 id=7 class=rigid size=64 min=32 submit=900 compute=3600 "
               "estimate=0 setup=100",
               "submit class=malleable size=256 min=64 compute=7200",
               "whatif mechanisms=all class=rigid size=1 label=a%20b%25c"},
              [](const std::string& line) {
                const Request req = Request::Parse(line);
                (void)ParseJobFields(req, /*now=*/3600);
                if (req.Has("id")) (void)ParseJobId(req);
                (void)req.GetString("mechanisms", "");
                (void)req.GetString("label", "");
                (void)req.GetInt("at", 0);
                req.RejectUnknown();
              });
}

TEST(ParseMutationTest, FaultPlans) {
  FuzzSurface("ParseFaultPlan",
              {"crash-before-cell=5;exit-code=3;torn-final-line;attempts=1",
               "drop-every=2;signal=9",
               "hang-at-cell=0;stall-at-cell=3;drop-conn-at-cell=1;kill-agent-at-cell=2;"
               "torn-frame-at-cell=4;attempts=99"},
              [](const std::string& text) { (void)ParseFaultPlan(text); });
}

TEST(ParseMutationTest, UnitHeaders) {
  FuzzSurface("ParseUnitHeader",
              {"unit origin=3 attempt=2 cells=17 threads=4", "unit origin=0 attempt=1 cells=1",
               "unit cells=0"},
              [](const std::string& line) { (void)ParseUnitHeader(line); });
}

/// WriteWorkerRow's frame for `spec`, as one line without its newline.
std::string WorkerRowLine(std::size_t index, const std::string& spec,
                          const std::string& trace, double turnaround) {
  SpecResult row{SimSpec::Parse(spec), trace, SimResult{}};
  row.result.avg_turnaround_h = turnaround;
  row.result.jobs_completed = 337;
  row.result.makespan = 31536000;
  std::ostringstream out;
  WriteWorkerRow(out, index, row);
  std::string line = out.str();
  line.pop_back();
  return line;
}

TEST(ParseMutationTest, WorkerRows) {
  FuzzSurface("ParseWorkerRow",
              {WorkerRowLine(0, "baseline/FCFS/W5", "paper-w5-seed1", 12.5),
               WorkerRowLine(17, "CUA&SPAA/SJF/W2/preset=tiny/seed=9", "theta 50% od",
                             1.0 / 3.0),
               WorkerRowLine(3, "N&PAA/FCFS/W5/preset=swf/swf=%2Fdata%2Ftheta.swf",
                             "/data/theta.swf", 1e-300)},
              [](const std::string& line) { (void)ParseWorkerRow(line); });
}

TEST(ParseMutationTest, CliFlags) {
  FuzzSurface("CliArgs",
              {"--weeks=4 --load=0.5 --verbose input.swf --name=a=b",
               "--spec=CUA&SPAA/FCFS/W5 --seed=9 --policy=sjf --ckpt_scale=0.5 --hold",
               "--port=0 --threads=2 --bind-any=on"},
              [](const std::string& line) {
                std::vector<std::string> words = {"prog"};
                for (const KvToken& token : Tokenize(line, ' ')) words.emplace_back(token.text);
                std::vector<const char*> argv;
                for (const std::string& word : words) argv.push_back(word.c_str());
                const CliArgs args(static_cast<int>(argv.size()), argv.data());
                (void)args.GetInt("weeks", 1);
                (void)args.GetInt("port", 0, 0, 65535);
                (void)args.GetInt("threads", 0, 0, 64);
                (void)args.GetDouble("load", 0.0);
                (void)args.GetBool("verbose", false);
                (void)args.GetBool("bind-any", false);
                (void)args.GetString("name", "");
                (void)SimSpec::FromCli(args);
                args.RejectUnknown();
              });
}

TEST(ParseMutationTest, PercentDecode) {
  FuzzSurface("PercentDecode", {"a%20b%25c%0A", "%2Fdata%2Ftheta%252.swf", "plain"},
              [](const std::string& text) {
                EXPECT_EQ(PercentDecode(PercentEncode(text, " \n/")), text);
                (void)PercentDecode(text);
              });
}

}  // namespace
}  // namespace hs
