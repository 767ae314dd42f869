// Subprocess spawning: exit codes, signals, redirection, exec failures,
// and sibling-binary resolution — the primitives under ShardedRunner.
#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <sys/stat.h>
#include <thread>
#include <tuple>
#include <unistd.h>

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
  // Every pipe and memfd end is O_CLOEXEC, so a child holds its pipe only
  // as stdout and its memfds only as stdin and stderr. Any other end it
  // kept would also reach later siblings, and a write end held elsewhere
  // keeps the reader from ever seeing EOF.
  const auto fd_links = [](int* out) {
    return Subprocess::SpawnPiped({"/bin/sh", "-c", "readlink /proc/$$/fd/* || true"}, out);
  };
  const auto pipe_name = [](int fd) {
    struct stat st;
    EXPECT_EQ(::fstat(fd, &st), 0);
    return "pipe:[" + std::to_string(st.st_ino) + "]";
  };
  int first_out = -1;
  Subprocess first = fd_links(&first_out);
  const std::string first_pipe = pipe_name(first_out);
  // The second child starts while this process still holds the first
  // child's pipe read end and stderr memfd.
  int second_out = -1;
  Subprocess second = fd_links(&second_out);
  const std::string second_pipe = pipe_name(second_out);
  for (auto [out, own_pipe, other_pipe] :
       {std::tuple{first_out, first_pipe, second_pipe},
        std::tuple{second_out, second_pipe, first_pipe}}) {
    Socket reader(out);
    int own = 0, other = 0, stdin_memfds = 0, stderr_memfds = 0;
    std::string line;
    while (reader.RecvLineWithTimeout(5.0, &line) == RecvLineStatus::kLine) {
      own += line == own_pipe ? 1 : 0;
      other += line == other_pipe ? 1 : 0;
      stdin_memfds += line.find("memfd:hs-stdin") != std::string::npos ? 1 : 0;
      stderr_memfds += line.find("memfd:hs-stderr") != std::string::npos ? 1 : 0;
    }
    EXPECT_EQ(own, 1);            // fd 1 only
    EXPECT_EQ(other, 0);          // not the sibling's pipe
    EXPECT_EQ(stdin_memfds, 1);   // fd 0 only
    EXPECT_EQ(stderr_memfds, 1);  // fd 2 only, not the sibling's
  }
  EXPECT_TRUE(first.Wait().ok());
  EXPECT_TRUE(second.Wait().ok());
}

/// Reads `fd` to EOF and closes it.
std::string ReadAll(int fd) {
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return text;
}

TEST(SubprocessTest, PipedChildReadsStdinTextByteExact) {
  // Larger than a pipe buffer, with tabs, blank lines, a NUL byte and no
  // final newline: the child must read back exactly what was passed.
  std::string text;
  for (int i = 0; i < 20000; ++i) text += std::to_string(i) + "\tcell\n\n";
  text += std::string("nul:\0:end", 9);
  int out = -1;
  Subprocess child = Subprocess::SpawnPiped({"/bin/cat"}, &out, text);
  EXPECT_EQ(ReadAll(out), text);
  EXPECT_TRUE(child.Wait().ok());
  EXPECT_EQ(child.StderrText(), "");
}

TEST(SubprocessTest, PipedChildStderrIsKeptInMemory) {
  int out = -1;
  Subprocess child = Subprocess::SpawnPiped(
      {"/bin/sh", "-c", "echo to-stdout; echo first >&2; echo second >&2; exit 4"}, &out);
  EXPECT_EQ(ReadAll(out), "to-stdout\n");
  EXPECT_EQ(child.Wait().exit_code, 4);
  EXPECT_EQ(child.StderrText(), "first\nsecond\n");
  EXPECT_EQ(child.StderrText(), "first\nsecond\n");  // reading does not consume

  // More than a pipe buffer of stderr, never drained while it runs: the
  // child must not block on it.
  int big_out = -1;
  Subprocess chatty = Subprocess::SpawnPiped(
      {"/bin/sh", "-c", "head -c 200000 /dev/zero | tr '\\0' x >&2"}, &big_out);
  EXPECT_TRUE(chatty.WaitFor(10.0)) << "child blocked on its stderr";
  if (chatty.running()) chatty.Kill();
  chatty.Wait();
  EXPECT_EQ(chatty.StderrText(), std::string(200000, 'x'));
  ::close(big_out);
}

TEST(SubprocessTest, PipedChildStderrSurvivesSigkill) {
  int out = -1;
  Subprocess child = Subprocess::SpawnPiped(
      {"/bin/sh", "-c", "echo before-kill >&2; exec sleep 30"}, &out);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (child.StderrText().empty() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(child.Kill());
  const ProcessStatus status = child.Wait();
  EXPECT_TRUE(status.signaled);
  EXPECT_EQ(child.StderrText(), "before-kill\n");
  ::close(out);
}

TEST(SubprocessTest, PipedExecFailureNoteIsInStderrText) {
  int out = -1;
  Subprocess child = Subprocess::SpawnPiped({"/nonexistent/bin"}, &out, "ignored\n");
  EXPECT_EQ(child.Wait().exit_code, 127);
  EXPECT_NE(child.StderrText().find("/nonexistent/bin"), std::string::npos);
  ::close(out);
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
