#include "util/subprocess.h"

#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <stdexcept>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

namespace hs {

namespace {

/// In the child, points `fd` at `path` (truncating); returns false on error.
bool RedirectToFile(int fd, const std::string& path) {
  const int file = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (file < 0) return false;
  const bool ok = ::dup2(file, fd) >= 0;
  ::close(file);
  return ok;
}

}  // namespace

std::string ProcessStatus::Describe() const {
  if (!spawned) return "spawn failed: " + error;
  if (!error.empty()) return "wait failed: " + error;
  if (signaled) {
    return "signal " + std::to_string(term_signal) + " (" +
           strsignal(term_signal) + ")";
  }
  if (exit_code == 127) return "exit 127 (exec failed: command not found?)";
  return "exit " + std::to_string(exit_code);
}

Subprocess Subprocess::Spawn(const std::vector<std::string>& argv,
                             const std::string& stdout_path,
                             const std::string& stderr_path) {
  return Launch(argv, -1, stdout_path, stderr_path);
}

Subprocess Subprocess::SpawnPiped(const std::vector<std::string>& argv, int* stdout_pipe,
                                  const std::string& stderr_path) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("pipe2: ") + std::strerror(errno));
  }
  Subprocess child = Launch(argv, fds[1], "", stderr_path);
  ::close(fds[1]);
  *stdout_pipe = fds[0];
  return child;
}

Subprocess Subprocess::Launch(const std::vector<std::string>& argv, int stdout_fd,
                              const std::string& stdout_path,
                              const std::string& stderr_path) {
  Subprocess child;
  if (argv.empty()) {
    child.status_.error = "empty argv";
    child.reaped_ = true;
    return child;
  }

  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& arg : argv) cargv.push_back(const_cast<char*>(arg.c_str()));
  cargv.push_back(nullptr);
  // Built before fork(): the child may only call async-signal-safe
  // functions (another thread could hold the malloc lock at fork time).
  const std::string exec_failed_note = "exec '" + argv[0] + "' failed\n";

  const pid_t pid = ::fork();
  if (pid < 0) {
    child.status_.error = std::string("fork: ") + std::strerror(errno);
    child.reaped_ = true;
    return child;
  }
  if (pid == 0) {
    // Child: redirect, exec, report failure through exit code 127 (the
    // shell convention) with a note on the original stderr if possible.
    // dup2 clears O_CLOEXEC on the new stdout only.
    if (stdout_fd >= 0 && ::dup2(stdout_fd, STDOUT_FILENO) < 0) _exit(127);
    if (!stdout_path.empty() && !RedirectToFile(STDOUT_FILENO, stdout_path)) _exit(127);
    if (!stderr_path.empty() && !RedirectToFile(STDERR_FILENO, stderr_path)) _exit(127);
    ::execvp(cargv[0], cargv.data());
    [[maybe_unused]] const auto n =
        ::write(STDERR_FILENO, exec_failed_note.data(), exec_failed_note.size());
    _exit(127);
  }
  child.pid_ = pid;
  child.status_.spawned = true;
  return child;
}

Subprocess::Subprocess(Subprocess&& other) noexcept
    : pid_(other.pid_), status_(std::move(other.status_)), reaped_(other.reaped_) {
  other.pid_ = -1;
  other.reaped_ = true;
}

Subprocess& Subprocess::operator=(Subprocess&& other) noexcept {
  if (this != &other) {
    assert(reaped_ || pid_ < 0);
    pid_ = other.pid_;
    status_ = std::move(other.status_);
    reaped_ = other.reaped_;
    other.pid_ = -1;
    other.reaped_ = true;
  }
  return *this;
}

Subprocess::~Subprocess() { assert(reaped_ || pid_ < 0); }

ProcessStatus Subprocess::Wait() {
  if (reaped_ || pid_ < 0) return status_;
  int wstatus = 0;
  pid_t waited = -1;
  do {
    waited = ::waitpid(pid_, &wstatus, 0);
  } while (waited < 0 && errno == EINTR);
  reaped_ = true;
  if (waited < 0) {
    // The child did spawn; only the wait failed (e.g. ECHILD when a host
    // app's SIGCHLD handler reaped it first) — keep `spawned` truthful.
    status_.error = std::string("waitpid: ") + std::strerror(errno);
    return status_;
  }
  if (WIFSIGNALED(wstatus)) {
    status_.signaled = true;
    status_.term_signal = WTERMSIG(wstatus);
  } else if (WIFEXITED(wstatus)) {
    status_.exit_code = WEXITSTATUS(wstatus);
  }
  return status_;
}

bool Subprocess::Poll() {
  if (reaped_ || pid_ < 0) return true;
  int wstatus = 0;
  pid_t waited = -1;
  do {
    waited = ::waitpid(pid_, &wstatus, WNOHANG);
  } while (waited < 0 && errno == EINTR);
  if (waited == 0) return false;  // still running
  reaped_ = true;
  if (waited < 0) {
    status_.error = std::string("waitpid: ") + std::strerror(errno);
    return true;
  }
  if (WIFSIGNALED(wstatus)) {
    status_.signaled = true;
    status_.term_signal = WTERMSIG(wstatus);
  } else if (WIFEXITED(wstatus)) {
    status_.exit_code = WEXITSTATUS(wstatus);
  }
  return true;
}

bool Subprocess::WaitFor(double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (!Poll()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

bool Subprocess::Kill(int sig) {
  if (reaped_ || pid_ < 0) return false;
  return ::kill(pid_, sig) == 0;
}

ProcessStatus RunProcess(const std::vector<std::string>& argv,
                         const std::string& stdout_path,
                         const std::string& stderr_path) {
  return Subprocess::Spawn(argv, stdout_path, stderr_path).Wait();
}

std::string SelfExeDir() {
  char buf[4096];
  ssize_t n = -1;
  do {
    n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return {};
  buf[n] = '\0';
  const std::string path(buf);
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

}  // namespace hs
