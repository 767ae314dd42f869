#include "util/subprocess.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <stdexcept>
#include <sys/mman.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <utility>

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

/// A fresh O_CLOEXEC memfd holding `text` (read offset still 0); -1 with
/// errno set on failure.
int MemFd(const char* name, const std::string& text) {
  const int fd = ::memfd_create(name, MFD_CLOEXEC);
  for (std::size_t done = 0; fd >= 0 && done < text.size();) {
    const ssize_t n = ::pwrite(fd, text.data() + done, text.size() - done,
                               static_cast<off_t>(done));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      ::close(fd);  // a successful close leaves errno alone
      return -1;
    }
    done += static_cast<std::size_t>(n);
  }
  return fd;
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
  const int inherit[3] = {-1, -1, -1};
  return Launch(argv, inherit, stdout_path, stderr_path);
}

Subprocess Subprocess::SpawnPiped(const std::vector<std::string>& argv, int* stdout_pipe,
                                  const std::string& stdin_text) {
  const int in = MemFd("hs-stdin", stdin_text);
  const int err = in < 0 ? -1 : MemFd("hs-stderr", "");
  int out[2];
  if (err < 0 || ::pipe2(out, O_CLOEXEC) != 0) {
    const std::string why = std::strerror(errno);
    if (in >= 0) ::close(in);
    if (err >= 0) ::close(err);
    throw std::runtime_error("SpawnPiped: " + why);
  }
  const int fds[3] = {in, out[1], err};
  Subprocess child = Launch(argv, fds, "", "");
  ::close(in);
  ::close(out[1]);
  child.stderr_fd_ = err;
  *stdout_pipe = out[0];
  return child;
}

std::string Subprocess::StderrText() const {
  std::string text;
  char buf[4096];
  for (off_t at = 0; stderr_fd_ >= 0;) {
    const ssize_t n = ::pread(stderr_fd_, buf, sizeof(buf), at);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
    at += n;
  }
  return text;
}

Subprocess Subprocess::Launch(const std::vector<std::string>& argv, const int fds[3],
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
    // shell convention) with a note on stderr if possible. dup2 clears
    // O_CLOEXEC on the new stdin/stdout/stderr only.
    for (int target = 0; target < 3; ++target) {
      if (fds[target] >= 0 && ::dup2(fds[target], target) < 0) _exit(127);
    }
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

Subprocess::Subprocess(Subprocess&& other) noexcept { *this = std::move(other); }

Subprocess& Subprocess::operator=(Subprocess&& other) noexcept {
  if (this != &other) {
    Release();
    pid_ = std::exchange(other.pid_, -1);
    status_ = std::move(other.status_);
    reaped_ = std::exchange(other.reaped_, true);
    stderr_fd_ = std::exchange(other.stderr_fd_, -1);
  }
  return *this;
}

Subprocess::~Subprocess() { Release(); }

void Subprocess::Release() {
  Kill();
  Wait();
  if (stderr_fd_ >= 0) ::close(stderr_fd_);
  stderr_fd_ = -1;
}

ProcessStatus Subprocess::Wait() {
  Reap(0);
  return status_;
}

bool Subprocess::Poll() { return Reap(WNOHANG); }

bool Subprocess::Reap(int flags) {
  if (reaped_ || pid_ < 0) return true;
  int wstatus = 0;
  pid_t waited = -1;
  do {
    waited = ::waitpid(pid_, &wstatus, flags);
  } while (waited < 0 && errno == EINTR);
  if (waited == 0) return false;  // WNOHANG: still running
  reaped_ = true;
  if (waited < 0) {
    // The child did spawn; only the wait failed (e.g. ECHILD when a host
    // app's SIGCHLD handler reaped it first) — keep `spawned` truthful.
    status_.error = std::string("waitpid: ") + std::strerror(errno);
  } else if (WIFSIGNALED(wstatus)) {
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
