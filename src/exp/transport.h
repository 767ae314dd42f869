// Transport: how ShardedRunner turns a work unit (a set of global spec
// indices) into a running executor and a stream of result rows — the seam
// that makes the fabric multi-host.
//
// The runner owns policy (work-stealing dispatch, retry budgets, hang
// detection, bisection, quarantine, the merge contract); a Transport owns
// only mechanism: launch a unit on some executor slot, report liveness,
// kill it, and hand back whatever rows it produced plus an honest account
// of how it ended. Two implementations:
//
//   LocalExecTransport  one hs_worker per unit, fork/exec'd with the unit
//                       on its stdin and its stdout on a pipe; its end is
//                       learned by waitpid.
//   TcpTransport        one slot per remote hs_agent daemon; units travel
//                       over the `# hs-fabric v2` line protocol and end
//                       with a `done`/`err` frame. A dead connection is a
//                       dead worker: the runner re-queues the unit.
//
// Both start workers through SpawnWorker (unit on stdin, stderr in memory:
// no file on either host) and read one frame stream through one
// FrameReader: hs_worker writes `row` frames and `# hs-progress`
// heartbeats to stdout, and hs_agent relays that output verbatim, adding
// only its own `log`/`done`/`err` frames. `# hs-fabric v2`
// (newline-delimited text, one connection per unit):
//
//   agent:        # hs-fabric v2                      greeting on accept
//   orchestrator: unit origin=K attempt=N cells=M [threads=T]
//                 <global index>\t<canonical spec>    x M (shard cell lines)
//                 end
//   worker:       row index=I ... end                 per completed cell
//                 # hs-progress ...                   heartbeats
//   agent:        log <worker stderr line>            diagnostics
//                 done exit=C | done signal=S         terminal status
//                 err msg=<reason>                    agent-side failure
//
// The agent closes the connection after `done`/`err`; the orchestrator
// hanging up mid-unit makes the agent kill its worker and return to
// accept. Every stream byte counts as liveness. A malformed FINAL row is
// a torn write (retryable drop), a malformed earlier row is version skew
// (loud error), and a stream that ends before its unit does is a dead
// worker.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/shard_io.h"
#include "exp/sim_spec.h"
#include "util/socket.h"
#include "util/subprocess.h"

namespace hs {

/// Everything the runner needs to know about how one launched unit ended.
struct TransportOutcome {
  /// The unit never reached an executor (connect/handshake failure): no
  /// attempt was consumed, nothing ran, the runner may re-dispatch freely.
  bool infrastructure = false;
  /// The executor claims it completed the unit (exit 0 / `done exit=0`).
  /// Rows may still be missing (dropped rows) — the runner decides.
  bool clean = false;
  /// Human-readable failure description when !clean (or when
  /// infrastructure): already includes executor identity and stderr tail.
  std::string status;
  /// The final row was a truncated write (killed mid-write): a retryable
  /// dropped row, not version skew.
  bool torn_final_line = false;
  /// Every complete, well-formed row the unit produced, in arrival order.
  std::vector<IndexedSpecResult> rows;
};

/// The one reader of a `# hs-fabric` frame stream: a local worker's stdout
/// pipe or an hs_agent connection. It never blocks, counts every byte as
/// liveness, and sorts lines into row frames, heartbeats, `log` lines and
/// the terminal `done`/`err` frame.
class FrameReader {
 public:
  explicit FrameReader(Socket stream) : stream_(std::move(stream)) {}

  /// Reads every line that has arrived. True once the stream is over:
  /// EOF, a read error, or a terminal frame.
  bool Drain();
  /// Closes the stream; rows read so far are kept.
  void Close() { stream_.Close(); }

  /// Stream bytes read so far; heartbeats and `log` lines count too.
  std::uint64_t activity() const { return activity_; }
  /// The terminal `done ...` / `err ...` line; empty when none arrived.
  const std::string& terminal() const { return terminal_; }
  /// The read error that ended the stream; empty otherwise.
  const std::string& read_error() const { return read_error_; }
  /// The tail of the `log` lines, for error messages.
  std::string LogTail() const;

  /// Parses the row frames into `outcome.rows`. A malformed final row is a
  /// write cut short and sets `outcome.torn_final_line`; a malformed
  /// earlier row is version skew and throws std::runtime_error naming
  /// `source`.
  void TakeRows(const std::string& source, TransportOutcome& outcome) const;

 private:
  Socket stream_;
  std::uint64_t activity_ = 0;
  std::string terminal_;
  std::string read_error_;
  std::string log_;
  std::vector<std::string> rows_;
};

/// One launched unit in flight. Poll/activity are cheap and non-blocking;
/// Take() is called exactly once, after Poll() returned true.
class TransportTask {
 public:
  virtual ~TransportTask() = default;
  /// True once the unit has terminated (executor exited, stream closed,
  /// or the task was killed) and Take() may be called.
  virtual bool Poll() = 0;
  /// Monotone liveness counter (stream bytes read so far); the runner's
  /// inactivity monitor kills tasks whose counter stalls.
  virtual std::uint64_t activity() = 0;
  /// Hard-stop the unit (SIGKILL / connection close). Idempotent; a later
  /// Poll() returns true and Take() reports the kill.
  virtual void Kill() = 0;
  /// Gathers the terminal outcome. May throw std::runtime_error on wire
  /// version skew (malformed non-final rows).
  virtual TransportOutcome Take() = 0;
};

/// A way to run work units. slots() bounds concurrent launches; Launch is
/// only called while fewer than slots() tasks are outstanding.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual std::size_t slots() const = 0;
  /// Short human-readable label for reports ("local-exec (3 slots)",
  /// "tcp (2 agents: ...)").
  virtual std::string Describe() const = 0;
  /// Starts `indices` (positions into `specs`) as one unit. Never throws
  /// for per-launch infrastructure failures — those come back as an
  /// immediately-finished task with an `infrastructure` outcome, so the
  /// runner can route around a dead host.
  virtual std::unique_ptr<TransportTask> Launch(
      const std::vector<std::size_t>& indices, const std::vector<SimSpec>& specs,
      std::size_t origin_shard, int attempt) = 0;
  /// True when every slot has accumulated >= `threshold` consecutive
  /// dispatch failures with no success in between — the whole fabric is
  /// unreachable and the runner should give up rather than re-queue
  /// forever. A transport whose launches cannot fail as infrastructure
  /// (local fork/exec) never reports dead slots.
  virtual bool AllSlotsDead(std::size_t threshold) const {
    (void)threshold;
    return false;
  }
};

/// One fabric agent endpoint.
struct HostEndpoint {
  std::string host;
  std::uint16_t port = 0;
  std::string Label() const { return host + ":" + std::to_string(port); }
};

/// Parses a `--hosts=` list: comma-separated `host:port` entries.
/// Empty input is an empty list (callers treat that as "run locally").
/// Throws std::invalid_argument naming the offending entry.
std::vector<HostEndpoint> ParseHostList(const std::string& hosts);

/// The `unit` frame's header line, the one piece of the orchestrator's side
/// of `# hs-fabric v2` that is not a shard cell line.
struct UnitHeader {
  int origin = 0;   // the unit's original shard
  int attempt = 1;  // 1-based try number (gates HS_FAULT)
  int cells = 0;    // cell lines that follow
  int threads = 0;  // the worker's --threads when > 0
};

/// "unit origin=K attempt=N cells=M[ threads=T]" (threads only when > 0).
std::string FormatUnitHeader(const UnitHeader& header);

/// Parses FormatUnitHeader's line with the key=value grammar of
/// util/parse.h: every value a plain decimal that fits an int, attempt
/// >= 1, cells= required. Throws std::invalid_argument naming the
/// offending token.
UnitHeader ParseUnitHeader(const std::string& line);

/// Starts `worker_bin --shard=/dev/stdin --out=/dev/stdout --attempt=N
/// [--threads=T if > 0]` with `shard_text` (shard_io.h) on stdin, its frame
/// stream on `*stdout_pipe` and its stderr in memory (StderrText). Both
/// transports start workers only here: local exec directly, TCP in hs_agent.
Subprocess SpawnWorker(const std::string& worker_bin, const std::string& shard_text,
                       int attempt, int threads, int* stdout_pipe);

/// The fork/exec transport: one SpawnWorker per unit, rows read from the
/// worker's stdout pipe, its in-memory stderr quoted in failure statuses.
class LocalExecTransport final : public Transport {
 public:
  /// `slots` is the concurrency cap (the runner passes the plan width, so
  /// local behavior is unchanged: at most one worker per original shard).
  LocalExecTransport(std::string worker_cmd, int worker_threads, std::size_t slots);

  std::size_t slots() const override { return slots_; }
  std::string Describe() const override;
  std::unique_ptr<TransportTask> Launch(const std::vector<std::size_t>& indices,
                                        const std::vector<SimSpec>& specs,
                                        std::size_t origin_shard,
                                        int attempt) override;

 private:
  std::string worker_cmd_;
  int worker_threads_ = 0;
  std::size_t slots_ = 1;
};

struct TcpTransportOptions {
  int worker_threads = 0;        // forwarded in the unit header when > 0
  double connect_timeout_s = 5.0;  // per-connect + greeting deadline
};

/// The multi-host transport: one slot per hs_agent endpoint. Launch picks
/// an idle agent (healthiest first — consecutive connect failures rank an
/// agent last until it answers again); a connect/handshake failure is an
/// `infrastructure` outcome so the runner re-queues the unit on another
/// host without burning a retry attempt.
class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(std::vector<HostEndpoint> hosts,
                        TcpTransportOptions options = {});

  std::size_t slots() const override { return agents_.size(); }
  std::string Describe() const override;
  std::unique_ptr<TransportTask> Launch(const std::vector<std::size_t>& indices,
                                        const std::vector<SimSpec>& specs,
                                        std::size_t origin_shard,
                                        int attempt) override;
  bool AllSlotsDead(std::size_t threshold) const override;

 private:
  friend class TcpTransportTask;
  struct AgentSlot {
    HostEndpoint endpoint;
    bool busy = false;
    std::size_t consecutive_failures = 0;
  };
  std::vector<AgentSlot> agents_;
  TcpTransportOptions options_;
};

/// The protocol greeting/version line both sides must agree on.
inline constexpr const char* kFabricGreeting = "# hs-fabric v2";

}  // namespace hs
