// Minimal POSIX subprocess spawning for the multi-process experiment
// harness: fork/exec (no shell), optional stdout/stderr redirection to
// files, or stdin text + stdout pipe + in-memory stderr, blocking and
// deadline waits, non-blocking polls, and kill — the
// primitives the fault-tolerant ShardedRunner needs to respawn dead
// workers and reap hung ones. Every wait/poll retries EINTR, so a stray
// signal during gather can never surface as a spurious worker failure.
// Workers share nothing with the parent beyond their command line, so
// this stays deliberately small.
#pragma once

#include <csignal>
#include <string>
#include <sys/types.h>
#include <vector>

namespace hs {

/// Terminal state of one child process.
struct ProcessStatus {
  bool spawned = false;   // fork/exec reached the child
  int exit_code = -1;     // valid when spawned && !signaled
  bool signaled = false;  // child died on a signal
  int term_signal = 0;    // valid when signaled
  std::string error;      // parent-side failure (fork/open), when !spawned

  bool ok() const { return spawned && !signaled && exit_code == 0; }
  /// Human-readable summary ("exit 3", "signal 11 (SEGV)", ...).
  std::string Describe() const;
};

/// One spawned child. Move-only. A child still running when its handle is
/// destroyed or assigned over is SIGKILLed and reaped, so no exit path
/// (an exception unwinding past a failed shard included) leaks a zombie.
class Subprocess {
 public:
  /// An empty handle (no child): running() is false, Wait()/Poll() return
  /// an unspawned status. Assign a Spawn() result into it to arm it.
  Subprocess() = default;

  /// Starts `argv` (argv[0] is the executable; PATH-searched when it has no
  /// '/'). Non-empty `stdout_path` / `stderr_path` redirect the child's
  /// streams to freshly truncated files. Never throws: a failed spawn is
  /// reported by Wait().
  static Subprocess Spawn(const std::vector<std::string>& argv,
                          const std::string& stdout_path = "",
                          const std::string& stderr_path = "");

  /// Like Spawn, but the child reads `stdin_text` on stdin, writes stdout
  /// into a fresh pipe whose read end goes to `*stdout_pipe` (owned by the
  /// caller), and stderr into memory (StderrText). Stdin and stderr are
  /// memfds: the text is written before fork, so a child that dies unread
  /// raises no SIGPIPE here and a chatty one never blocks on stderr. Every
  /// fd is O_CLOEXEC: later children inherit none, and the reader sees EOF
  /// once this child exits. Throws std::runtime_error only when no pipe or
  /// memfd can be made.
  static Subprocess SpawnPiped(const std::vector<std::string>& argv, int* stdout_pipe,
                               const std::string& stdin_text = "");

  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&& other) noexcept;
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;
  ~Subprocess();

  /// Blocks until the child exits; idempotent (later calls return the
  /// cached status). EINTR is retried.
  ProcessStatus Wait();

  /// Non-blocking reap attempt (waitpid WNOHANG, EINTR retried): returns
  /// true once the child has exited — the status is cached, and a later
  /// Wait()/Poll() returns it without re-reaping. Also true when the spawn
  /// itself failed (there is nothing left to wait for).
  bool Poll();

  /// Waits until the child exits or `timeout_s` elapses (short poll +
  /// sleep loop); returns true when the child exited within the deadline.
  /// On false the child is still running — Kill() + Wait() to reap it.
  bool WaitFor(double timeout_s);

  /// Sends `sig` (default SIGKILL) to a still-running child. Returns false
  /// when there is nothing to signal (spawn failed or already reaped); the
  /// caller still owns the reap (Wait/Poll) after a successful Kill.
  bool Kill(int sig = SIGKILL);

  /// True while a spawned child has not been reaped yet.
  bool running() const { return pid_ >= 0 && !reaped_; }

  pid_t pid() const { return pid_; }

  /// What a SpawnPiped child has written to stderr so far (all of it once
  /// the child has exited, including after a kill); empty for Spawn.
  std::string StderrText() const;

 private:
  /// fork/exec; child stream i is `fds[i]` when >= 0, else stdout/stderr
  /// go to the path when non-empty, else the stream is inherited.
  static Subprocess Launch(const std::vector<std::string>& argv, const int fds[3],
                           const std::string& stdout_path,
                           const std::string& stderr_path);
  /// Kill + reap a still-running child, then close the stderr memfd.
  void Release();
  /// waitpid(flags), EINTR retried; true once the status is cached (or
  /// there is no child), false while a WNOHANG child still runs.
  bool Reap(int flags);

  pid_t pid_ = -1;  // -1: spawn failed or already reaped
  ProcessStatus status_;
  bool reaped_ = false;
  int stderr_fd_ = -1;  // SpawnPiped's stderr memfd, owned
};

/// Convenience: spawn + wait.
ProcessStatus RunProcess(const std::vector<std::string>& argv,
                         const std::string& stdout_path = "",
                         const std::string& stderr_path = "");

/// Directory holding the current executable (via /proc/self/exe), without a
/// trailing slash; empty when it cannot be resolved. Lets orchestrators
/// find sibling binaries (hs_worker) in the same build directory.
std::string SelfExeDir();

}  // namespace hs
