// hs_worker: executes one shard of a sharded experiment grid.
//
//   hs_worker --shard=FILE --out=FILE [--threads=N] [--attempt=N]
//
// Reads a shard text (shard_io.h) from --shard, runs every cell through
// the ordinary in-process ExperimentRunner (so trace sharing, validation,
// and failure semantics are identical to a local run), and writes the
// `# hs-fabric` frame stream (exp/transport.h) to --out: one
// `row index=N ... end` frame per completed cell (shard_io.h), flushed
// with the cell, so if
// this process dies mid-shard every completed row has already left and
// the orchestrator reports exactly which spec indices were dropped. The
// fabric starts it through SpawnWorker with --shard=/dev/stdin and
// --out=/dev/stdout: the unit arrives on stdin, the stream leaves on a
// pipe, and stderr is kept in memory by the parent.
//
// Liveness: every completed cell is followed by a heartbeat frame
// `# hs-progress cell=<global spec index>` (plus one
// `# hs-progress start cells=<n>` after the shard file is read) in the
// same stream — the orchestrator counts stream bytes, so a wedged worker
// is detected by inactivity and killed.
//
// Fault injection: the HS_FAULT environment variable carries a
// deterministic FaultPlan (exp/fault_plan.h) — crash-before-cell, hang,
// row drops, torn final lines — gated on --attempt (default 1), which the
// orchestrator increments per respawn so injected chaos can heal on
// retry. Production runs simply leave HS_FAULT unset.
//
// Exit status: 0 on success; 1 on any error (bad flags, unreadable or
// malformed shard text, failing spec) with the reason on stderr.
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exp/fault_plan.h"
#include "exp/runner.h"
#include "exp/shard_io.h"
#include "util/cli.h"
#include "util/thread_pool.h"

namespace {

/// Writes one flushed heartbeat frame (the orchestrator's inactivity
/// monitor counts stream bytes).
void Heartbeat(std::ostream& out, const char* what, long long value) {
  out << "# hs-progress " << what << '=' << value << '\n';
  out.flush();
}

/// Translates the runner's local spec indices back to the global indices
/// of the shard file and streams each row frame as it completes —
/// injecting the HS_FAULT plan (when armed for this attempt) at exactly
/// the point a real crash/hang/drop would bite: between computing a cell
/// and persisting its row.
class ShardOutputSink final : public hs::ResultSink {
 public:
  ShardOutputSink(std::ostream& out, std::vector<std::size_t> global_indices,
                  hs::FaultPlan fault)
      : out_(out), global_indices_(std::move(global_indices)), fault_(fault) {}

  void OnResult(std::size_t spec_index, const hs::SpecResult& row) override {
    const long long global =
        static_cast<long long>(global_indices_.at(spec_index));
    if (fault_.hang_at_cell == global) {
      // Wedge silently: no row, no heartbeat — only the orchestrator's
      // inactivity timeout ends this process.
      while (true) std::this_thread::sleep_for(std::chrono::seconds(3600));
    }
    if (fault_.crash_before_cell == global) {
      if (fault_.torn_final_line) {
        // A killed-mid-write tear: the first half of the row, no newline.
        std::ostringstream full;
        hs::WriteWorkerRow(full, static_cast<std::size_t>(global), row);
        const std::string text = full.str();
        out_ << text.substr(0, text.size() / 2);
        out_.flush();
      }
      if (fault_.signal != 0) std::raise(fault_.signal);
      std::_Exit(fault_.exit_code);
    }
    ++completed_;
    if (fault_.drop_every > 0 && completed_ % fault_.drop_every == 0) {
      Heartbeat(out_, "cell", global);  // computed, heartbeat sent — row "lost"
      return;
    }
    hs::WriteWorkerRow(out_, static_cast<std::size_t>(global), row);
    Heartbeat(out_, "cell", global);  // its flush sends the row too
  }

 private:
  std::ostream& out_;
  std::vector<std::size_t> global_indices_;
  hs::FaultPlan fault_;
  int completed_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace hs;
  try {
    const CliArgs args(argc, argv);
    const std::string shard_path = args.GetString("shard", "");
    const std::string out_path = args.GetString("out", "");
    const int threads = static_cast<int>(args.GetInt("threads", 0, 0, INT_MAX));
    const int attempt = static_cast<int>(args.GetInt("attempt", 1, 1, INT_MAX));
    args.RejectUnknown();
    if (shard_path.empty() || out_path.empty()) {
      std::fprintf(stderr,
                   "usage: %s --shard=FILE --out=FILE [--threads=N] [--attempt=N]\n",
                   args.program().c_str());
      return 1;
    }

    FaultPlan fault = FaultPlanFromEnv();
    if (!fault.ActiveOn(attempt)) fault = FaultPlan{};  // healed on retry

    std::ifstream shard_in(shard_path);
    if (!shard_in) throw std::runtime_error("cannot open --shard=" + shard_path);
    const std::vector<IndexedSpec> cells = ReadShardFile(shard_in);
    std::vector<SimSpec> specs;
    std::vector<std::size_t> global_indices;
    specs.reserve(cells.size());
    global_indices.reserve(cells.size());
    for (const IndexedSpec& cell : cells) {
      global_indices.push_back(cell.index);
      specs.push_back(cell.spec);
    }

    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "hs_worker: cannot open --out=%s\n", out_path.c_str());
      return 1;
    }
    Heartbeat(out, "start cells", static_cast<long long>(specs.size()));
    ShardOutputSink sink(out, std::move(global_indices), fault);

    ThreadPool pool(threads > 0 ? static_cast<std::size_t>(threads) : 0);
    ExperimentRunner runner(pool);
    runner.Run(specs, &sink);
    std::fprintf(stderr, "hs_worker: ran %zu cells from %s\n", specs.size(),
                 shard_path.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hs_worker: %s\n", e.what());
    return 1;
  }
}
