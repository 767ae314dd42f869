#include "util/cli.h"
#include "util/parse.h"

#include <gtest/gtest.h>

namespace hs {
namespace {

CliArgs Make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv(args);
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(CliTest, ParsesKeyValueFlags) {
  const auto args = Make({"prog", "--weeks=4", "--name=test"});
  EXPECT_EQ(args.GetInt("weeks", 0), 4);
  EXPECT_EQ(args.GetString("name", ""), "test");
}

TEST(CliTest, BooleanFlagWithoutValue) {
  const auto args = Make({"prog", "--verbose"});
  EXPECT_TRUE(args.GetBool("verbose", false));
  EXPECT_TRUE(args.Has("verbose"));
}

TEST(CliTest, DefaultsWhenAbsent) {
  const auto args = Make({"prog"});
  EXPECT_EQ(args.GetInt("missing", 9), 9);
  EXPECT_EQ(args.GetString("missing", "d"), "d");
  EXPECT_DOUBLE_EQ(args.GetDouble("missing", 1.5), 1.5);
  EXPECT_FALSE(args.GetBool("missing", false));
}

TEST(CliTest, PositionalArguments) {
  const auto args = Make({"prog", "input.swf", "--flag", "output.csv"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.swf");
  EXPECT_EQ(args.positional()[1], "output.csv");
}

TEST(CliTest, DoubleParsing) {
  const auto args = Make({"prog", "--scale=0.5"});
  EXPECT_DOUBLE_EQ(args.GetDouble("scale", 0.0), 0.5);
}

TEST(CliTest, BoolVariants) {
  EXPECT_TRUE(Make({"p", "--x=yes"}).GetBool("x", false));
  EXPECT_TRUE(Make({"p", "--x=1"}).GetBool("x", false));
  EXPECT_FALSE(Make({"p", "--x=no"}).GetBool("x", true));
}

TEST(CliTest, MalformedValuesThrowNamingTheFlag) {
  const auto expect_rejected = [](const char* arg, auto get) {
    const auto args = Make({"prog", arg});
    try {
      get(args);
      ADD_FAILURE() << arg << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(arg), std::string::npos) << e.what();
    }
  };
  const auto get_int = [](const CliArgs& a) { (void)a.GetInt("n", 0); };
  const auto get_double = [](const CliArgs& a) { (void)a.GetDouble("n", 0.0); };
  const auto get_bool = [](const CliArgs& a) { (void)a.GetBool("n", false); };
  for (const char* arg : {"--n=abc", "--n=2x", "--n=", "--n= 7", "--n=+7", "--n=1.5",
                          "--n=99999999999999999999", "--n"}) {
    expect_rejected(arg, get_int);
  }
  for (const char* arg : {"--n=abc", "--n=0.5s", "--n=", "--n= 1", "--n=1e999"}) {
    expect_rejected(arg, get_double);
  }
  for (const char* arg : {"--n=maybe", "--n=", "--n=TRUE", "--n=2"}) {
    expect_rejected(arg, get_bool);
  }
}

TEST(CliTest, StrictValuesStillParse) {
  EXPECT_EQ(Make({"p", "--n=-12"}).GetInt("n", 0), -12);
  EXPECT_EQ(Make({"p", "--n=9223372036854775807"}).GetInt("n", 0), INT64_MAX);
  EXPECT_DOUBLE_EQ(Make({"p", "--n=-2.5e-3"}).GetDouble("n", 0.0), -2.5e-3);
  EXPECT_DOUBLE_EQ(Make({"p", "--n=7"}).GetDouble("n", 0.0), 7.0);
  EXPECT_FALSE(Make({"p", "--x=false"}).GetBool("x", true));
  EXPECT_FALSE(Make({"p", "--x=0"}).GetBool("x", true));
}

TEST(CliTest, ParseIntIsWholeStringAndRangeChecked) {
  EXPECT_EQ(ParseInt("42"), 42);
  EXPECT_EQ(ParseInt("-1"), -1);
  EXPECT_EQ(ParseInt("-1", 0), std::nullopt);
  EXPECT_EQ(ParseInt("65535", 1, 65535), 65535);
  EXPECT_EQ(ParseInt("65536", 1, 65535), std::nullopt);
  for (const char* bad : {"", "+7", " 7", "7 ", "0x10", "1e3", "12x", "-",
                          "9223372036854775808"}) {
    EXPECT_EQ(ParseInt(bad), std::nullopt) << "'" << bad << "'";
  }
}

TEST(CliTest, ProgramName) {
  EXPECT_EQ(Make({"prog"}).program(), "prog");
}

TEST(CliTest, RejectUnknownPassesWhenAllFlagsWereRead) {
  const auto args = Make({"prog", "--weeks=4", "--verbose"});
  (void)args.GetInt("weeks", 0);
  (void)args.GetBool("verbose", false);
  EXPECT_NO_THROW(args.RejectUnknown());
  EXPECT_TRUE(args.UnknownFlags().empty());
}

TEST(CliTest, RejectUnknownThrowsOnTypoFlags) {
  const auto args = Make({"prog", "--weeks=4", "--seeed=3"});
  (void)args.GetInt("weeks", 0);
  (void)args.GetInt("seed", 1);  // the intended flag, never passed
  EXPECT_EQ(args.UnknownFlags(), std::vector<std::string>{"seeed"});
  try {
    args.RejectUnknown();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--seeed"), std::string::npos);
  }
}

TEST(CliTest, ProbingAbsentFlagsDoesNotMaskUnknownOnes) {
  const auto args = Make({"prog", "--mystery=1"});
  (void)args.Has("known");
  EXPECT_THROW(args.RejectUnknown(), std::invalid_argument);
}

}  // namespace
}  // namespace hs
