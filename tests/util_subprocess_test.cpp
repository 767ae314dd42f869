// Subprocess spawning: exit codes, signals, redirection, exec failures,
// and sibling-binary resolution — the primitives under ShardedRunner.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include "util/file_util.h"
#include "util/socket.h"
#include "util/subprocess.h"

namespace hs {
namespace {

TEST(SubprocessTest, RunsAndReportsExitZero) {
  const ProcessStatus status = RunProcess({"/bin/true"});
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.exit_code, 0);
  EXPECT_FALSE(status.signaled);
  EXPECT_EQ(status.Describe(), "exit 0");
}

TEST(SubprocessTest, ReportsNonZeroExit) {
  const ProcessStatus status = RunProcess({"/bin/sh", "-c", "exit 3"});
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.exit_code, 3);
  EXPECT_EQ(status.Describe(), "exit 3");
}

TEST(SubprocessTest, ReportsTerminationSignal) {
  const ProcessStatus status = RunProcess({"/bin/sh", "-c", "kill -9 $$"});
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.signaled);
  EXPECT_EQ(status.term_signal, 9);
  EXPECT_NE(status.Describe().find("signal 9"), std::string::npos);
}

TEST(SubprocessTest, RedirectsStdoutToFile) {
  const std::string dir = MakeTempDir("hs-subproc-test-");
  const std::string out = dir + "/echo.out";
  const ProcessStatus status = RunProcess({"/bin/echo", "hello", "shard"}, out);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(ReadTextFile(out), "hello shard\n");
  RemoveTreeBestEffort(dir);
}

TEST(SubprocessTest, PipedChildHoldsOnlyItsStdoutEnd) {
  // Both pipe ends are O_CLOEXEC, so the child holds its pipe only as
  // stdout. Any other end it kept would also reach later siblings, and a
  // write end held elsewhere keeps the reader from ever seeing EOF.
  int out = -1;
  Subprocess child = Subprocess::SpawnPiped(
      {"/bin/sh", "-c", "readlink /proc/$$/fd/* || true"}, &out);
  struct stat st;
  ASSERT_EQ(::fstat(out, &st), 0);
  const std::string own_pipe = "pipe:[" + std::to_string(st.st_ino) + "]";
  Socket reader(out);
  int holders = 0;
  std::string line;
  while (reader.RecvLineWithTimeout(5.0, &line) == RecvLineStatus::kLine) {
    holders += line == own_pipe ? 1 : 0;
  }
  EXPECT_TRUE(child.Wait().ok());
  EXPECT_EQ(holders, 1);  // fd 1 only
}

TEST(SubprocessTest, ExecFailureIsExit127WithStderrNote) {
  const std::string dir = MakeTempDir("hs-subproc-test-");
  const std::string err = dir + "/err.txt";
  const ProcessStatus status = RunProcess({"/nonexistent/bin"}, "", err);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.exit_code, 127);
  EXPECT_NE(status.Describe().find("exec failed"), std::string::npos);
  EXPECT_NE(ReadTextFile(err).find("/nonexistent/bin"), std::string::npos);
  RemoveTreeBestEffort(dir);
}

TEST(SubprocessTest, WaitIsIdempotent) {
  Subprocess child = Subprocess::Spawn({"/bin/sh", "-c", "exit 5"});
  EXPECT_EQ(child.Wait().exit_code, 5);
  EXPECT_EQ(child.Wait().exit_code, 5);  // cached, no double-reap
}

TEST(SubprocessTest, PollReportsRunningThenExited) {
  Subprocess child = Subprocess::Spawn({"/bin/sh", "-c", "sleep 0.2; exit 7"});
  EXPECT_TRUE(child.running());
  EXPECT_FALSE(child.Poll());  // still asleep
  EXPECT_TRUE(child.WaitFor(10.0));
  EXPECT_TRUE(child.Poll());  // cached after reap
  EXPECT_FALSE(child.running());
  EXPECT_EQ(child.Wait().exit_code, 7);
}

TEST(SubprocessTest, WaitForTimesOutAndKillReaps) {
  Subprocess child = Subprocess::Spawn({"/bin/sleep", "30"});
  EXPECT_FALSE(child.WaitFor(0.05));  // deadline elapses, child survives
  EXPECT_TRUE(child.running());
  EXPECT_TRUE(child.Kill());  // SIGKILL
  const ProcessStatus status = child.Wait();
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.signaled);
  EXPECT_EQ(status.term_signal, SIGKILL);
}

TEST(SubprocessTest, KillAfterReapIsRejected) {
  Subprocess child = Subprocess::Spawn({"/bin/true"});
  EXPECT_EQ(child.Wait().exit_code, 0);
  EXPECT_FALSE(child.Kill());  // nothing left to signal
  Subprocess failed = Subprocess::Spawn({});
  EXPECT_TRUE(failed.Poll());  // spawn failure: nothing to wait for
  EXPECT_FALSE(failed.Kill());
  failed.Wait();
}

TEST(SubprocessTest, SelfExeDirIsAbsolute) {
  const std::string dir = SelfExeDir();
  ASSERT_FALSE(dir.empty());
  EXPECT_EQ(dir.front(), '/');
  EXPECT_NE(dir.back(), '/');
}

TEST(SubprocessTest, EmptyArgvFailsCleanly) {
  const ProcessStatus status = RunProcess({});
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(status.spawned);
  EXPECT_NE(status.Describe().find("spawn failed"), std::string::npos);
}

}  // namespace
}  // namespace hs
