// Minimal POSIX subprocess spawning for the multi-process experiment
// harness: fork/exec (no shell), optional stdout/stderr redirection to
// files or stdout onto a pipe, blocking and deadline waits, non-blocking polls, and kill — the
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

/// One spawned child. Move-only; Wait() must be called (the destructor
/// asserts the child was reaped so shard failures cannot leak zombies).
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

  /// Like Spawn, but the child's stdout is the write end of a fresh pipe
  /// whose read end is stored in `*stdout_pipe` (owned by the caller).
  /// Both ends are O_CLOEXEC, so children spawned later never inherit the
  /// write end and the reader sees EOF once this child exits. Throws
  /// std::runtime_error only when no pipe can be made.
  static Subprocess SpawnPiped(const std::vector<std::string>& argv, int* stdout_pipe,
                               const std::string& stderr_path = "");

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

 private:
  /// fork/exec; the child's stdout is `stdout_fd` when >= 0, else
  /// `stdout_path` when non-empty.
  static Subprocess Launch(const std::vector<std::string>& argv, int stdout_fd,
                           const std::string& stdout_path,
                           const std::string& stderr_path);

  pid_t pid_ = -1;  // -1: spawn failed or already reaped
  ProcessStatus status_;
  bool reaped_ = false;
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
