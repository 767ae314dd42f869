// CSV, env-var, and logging utilities.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "util/csv.h"
#include "util/env.h"
#include "util/file_util.h"
#include "util/log.h"

namespace hs {
namespace {

TEST(CsvTest, PlainRow) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.WriteRow({"a", "b", "c"});
  EXPECT_EQ(out.str(), "a,b,c\n");
}

TEST(CsvTest, EscapesSeparatorsAndQuotes) {
  EXPECT_EQ(CsvWriter::Escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::Escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::Escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::Escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvTest, MultipleRows) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.WriteRow({"x"});
  writer.WriteRow({"1,5", "2"});
  EXPECT_EQ(out.str(), "x\n\"1,5\",2\n");
}

TEST(EnvTest, IntDefaultsAndParses) {
  ::unsetenv("HS_TEST_ENV_INT");
  EXPECT_EQ(EnvInt("HS_TEST_ENV_INT", 7), 7);
  ::setenv("HS_TEST_ENV_INT", "42", 1);
  EXPECT_EQ(EnvInt("HS_TEST_ENV_INT", 7), 42);
  ::setenv("HS_TEST_ENV_INT", "garbage", 1);
  EXPECT_THROW(EnvInt("HS_TEST_ENV_INT", 7), std::invalid_argument);
  ::setenv("HS_TEST_ENV_INT", "2x", 1);
  try {
    EnvInt("HS_TEST_ENV_INT", 7);
    ADD_FAILURE() << "2x parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("HS_TEST_ENV_INT=2x"), std::string::npos)
        << e.what();
  }
  ::unsetenv("HS_TEST_ENV_INT");
}

TEST(EnvTest, StringDefaults) {
  ::unsetenv("HS_TEST_ENV_STR");
  EXPECT_EQ(EnvString("HS_TEST_ENV_STR", "d"), "d");
  ::setenv("HS_TEST_ENV_STR", "value", 1);
  EXPECT_EQ(EnvString("HS_TEST_ENV_STR", "d"), "value");
  ::unsetenv("HS_TEST_ENV_STR");
}

TEST(EnvTest, BenchScaleDefaultsToPaperHorizon) {
  ::unsetenv("HYBRIDSCHED_WEEKS");
  ::unsetenv("HYBRIDSCHED_SEEDS");
  ::unsetenv("HYBRIDSCHED_FULL");
  const BenchScale scale = ResolveBenchScale();
  EXPECT_EQ(scale.weeks, 52);
  EXPECT_EQ(scale.seeds, 5);
  EXPECT_FALSE(scale.full);
}

TEST(EnvTest, BenchScaleFullMode) {
  ::setenv("HYBRIDSCHED_FULL", "1", 1);
  const BenchScale scale = ResolveBenchScale();
  EXPECT_EQ(scale.weeks, 52);
  EXPECT_EQ(scale.seeds, 10);
  EXPECT_TRUE(scale.full);
  ::unsetenv("HYBRIDSCHED_FULL");
}

TEST(EnvTest, BenchScaleOverridesAndClamps) {
  ::setenv("HYBRIDSCHED_WEEKS", "3", 1);
  ::setenv("HYBRIDSCHED_SEEDS", "-2", 1);
  const BenchScale scale = ResolveBenchScale();
  EXPECT_EQ(scale.weeks, 3);
  EXPECT_EQ(scale.seeds, 1);  // clamped to >= 1
  ::unsetenv("HYBRIDSCHED_WEEKS");
  ::unsetenv("HYBRIDSCHED_SEEDS");
}

TEST(LogTest, ThresholdFilters) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // These must not crash and must be filtered (no observable assertion
  // beyond "does not blow up"; the sink writes to stderr).
  HS_LOG(kDebug) << "filtered";
  HS_LOG(kInfo) << "filtered " << 42;
  SetLogLevel(before);
}

TEST(LogTest, OffSilencesEverything) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kOff);
  HS_LOG(kError) << "still filtered";
  SetLogLevel(before);
}

TEST(FileUtilTest, TextFileRoundTripAndLines) {
  const std::string dir = MakeTempDir("hs-io-test-");
  const std::string path = dir + "/sample.txt";
  WriteTextFile(path, "alpha\nbeta\n\ngamma");
  EXPECT_EQ(ReadTextFile(path), "alpha\nbeta\n\ngamma");
  EXPECT_EQ(ReadLines(path),
            (std::vector<std::string>{"alpha", "beta", "", "gamma"}));
  // A trailing newline does not create a phantom empty line.
  WriteTextFile(path, "one\ntwo\n");
  EXPECT_EQ(ReadLines(path), (std::vector<std::string>{"one", "two"}));
  WriteTextFile(path, "");
  EXPECT_TRUE(ReadLines(path).empty());
  RemoveTreeBestEffort(dir);
}

TEST(FileUtilTest, MissingFilesThrowWithPath) {
  try {
    ReadTextFile("/nonexistent/hs/file.txt");
    FAIL() << "must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/hs/file.txt"),
              std::string::npos);
  }
  EXPECT_THROW(WriteTextFile("/nonexistent/hs/file.txt", "x"), std::runtime_error);
}

TEST(FileUtilTest, TempDirsAreFreshAndRemovable) {
  const std::string a = MakeTempDir("hs-io-test-");
  const std::string b = MakeTempDir("hs-io-test-");
  EXPECT_NE(a, b);
  EXPECT_NE(a.find("hs-io-test-"), std::string::npos);
  WriteTextFile(a + "/nested.txt", "x");
  RemoveTreeBestEffort(a);
  EXPECT_THROW(ReadTextFile(a + "/nested.txt"), std::runtime_error);
  RemoveTreeBestEffort(b);
  RemoveTreeBestEffort(b);  // idempotent, never throws
}

}  // namespace
}  // namespace hs
