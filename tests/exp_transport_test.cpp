// Network-chaos differential tests for the multi-host TCP transport: a
// grid dispatched over real hs_agent processes on loopback must merge to
// the exact bytes of a clean single-process run — under any completion
// order, host count, and injected network-fault schedule (connection
// drops mid-stream, agent SIGKILL, torn frames, stalled heartbeats).
//
// Network faults ride the same HS_FAULT variable as worker faults
// (exp/fault_plan.h): the agents inherit the plan from this process's
// environment at spawn time, so each test arms HS_FAULT *before* starting
// its agents and the orchestrator side stays fault-free.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/runner.h"
#include "exp/sharded_runner.h"
#include "exp/transport.h"
#include "util/file_util.h"
#include "util/rng.h"
#include "util/socket.h"
#include "util/subprocess.h"
#include "util/thread_pool.h"

namespace hs {
namespace {

// --- helpers ----------------------------------------------------------------

/// Sets HS_FAULT for the enclosing scope (before agents spawn, so they
/// inherit it), unsetting it on exit.
class FaultEnv {
 public:
  explicit FaultEnv(const std::string& plan) {
    setenv("HS_FAULT", plan.c_str(), 1);
  }
  ~FaultEnv() { unsetenv("HS_FAULT"); }
  FaultEnv(const FaultEnv&) = delete;
  FaultEnv& operator=(const FaultEnv&) = delete;
};

std::vector<SimSpec> TinyGrid() {
  std::vector<SimSpec> specs;
  for (const char* mechanism : {"baseline", "N&SPAA", "CUA&SPAA"}) {
    SimSpec base = SimSpec::Parse(std::string(mechanism) + "/FCFS/W5/preset=tiny");
    for (const SimSpec& seeded : SeedSweep(base, 2, 300)) specs.push_back(seeded);
  }
  return specs;
}

/// The byte-stable CSV of a grid: canonical spec order, wall-clock stripped.
std::string InProcessCsv(const std::vector<SimSpec>& specs) {
  std::ostringstream out;
  CsvResultSink csv(out, {.include_wallclock = false});
  MergingResultSink merged(csv, specs.size());
  ThreadPool pool(4);
  ExperimentRunner runner(pool);
  runner.Run(specs, &merged);
  merged.Finish();
  return out.str();
}

struct FabricRun {
  std::string csv;
  FabricReport report;
};

/// Runs the grid through the fabric exactly as bench_spec_grid does.
FabricRun RunSharded(const std::vector<SimSpec>& specs,
                     ShardedRunnerOptions options) {
  std::ostringstream out;
  CsvResultSink csv(out, {.include_wallclock = false});
  MergingResultSink merged(csv, specs.size());
  ShardedRunner runner(std::move(options));
  runner.Run(specs, &merged);
  for (const FabricCellError& cell : runner.last_report().quarantined) {
    merged.Skip(cell.spec_index);
  }
  merged.Finish();
  return FabricRun{out.str(), runner.last_report()};
}

ShardedRunnerOptions TcpOptions(const std::string& hosts, int max_attempts,
                                std::size_t units = 4) {
  ShardedRunnerOptions options;
  options.shards = units;
  options.hosts = hosts;
  options.retry.max_attempts = max_attempts;
  options.retry.backoff_initial_s = 0.01;  // keep chaos trials fast
  options.retry.backoff_max_s = 0.05;
  return options;
}

/// One real hs_agent process on an ephemeral loopback port, discovered
/// via --port-file. The destructor kills and reaps it.
class AgentProc {
 public:
  AgentProc() : dir_(MakeTempDir("hs-transport-test-")) {
    const std::string exe_dir = SelfExeDir();
    std::filesystem::create_directories(work_dir());
    proc_ = Subprocess::Spawn(
        {exe_dir + "/hs_agent", "--port-file=" + dir_ + "/agent.port",
         "--worker-bin=" + exe_dir + "/hs_worker", "--work-dir=" + work_dir()},
        dir_ + "/agent.stdout", dir_ + "/agent.stderr");
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      try {
        const std::string text = ReadTextFile(dir_ + "/agent.port");
        port_ = static_cast<std::uint16_t>(std::stoi(text));
        break;
      } catch (const std::exception&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    if (port_ == 0) {
      proc_.Kill();
      proc_.Wait();
      throw std::runtime_error("hs_agent did not publish a port within 10s; "
                               "stderr: " + dir_ + "/agent.stderr");
    }
  }

  ~AgentProc() {
    proc_.Kill();
    proc_.Wait();
    RemoveTreeBestEffort(dir_);
  }

  std::uint16_t port() const { return port_; }
  std::string Label() const { return "127.0.0.1:" + std::to_string(port_); }
  /// The --work-dir the agent was given: accepted, but no unit writes there.
  std::string work_dir() const { return dir_ + "/work"; }

 private:
  std::string dir_;
  Subprocess proc_;
  std::uint16_t port_ = 0;
};

/// An endpoint that is guaranteed dead: binds an ephemeral port, then
/// closes it, so connects are refused. (The port could in principle be
/// reused before the test connects; ephemeral-range reuse within
/// milliseconds is vanishingly unlikely.)
std::uint16_t DeadPort() {
  TcpListener listener(0);
  return listener.port();
}

/// The agent's first reply to a unit header line (after its greeting).
std::string AgentReplyTo(std::uint16_t port, const std::string& header) {
  Socket probe = ConnectTcp("127.0.0.1", port, 5.0);
  std::string line;
  if (probe.RecvLineWithTimeout(5.0, &line) != RecvLineStatus::kLine) return "<no greeting>";
  SendLine(probe, header);
  if (probe.RecvLineWithTimeout(5.0, &line) != RecvLineStatus::kLine) return "<no reply>";
  return line;
}

// --- ParseHostList -----------------------------------------------------------

TEST(ParseHostListTest, ParsesValidLists) {
  EXPECT_TRUE(ParseHostList("").empty());
  const std::vector<HostEndpoint> one = ParseHostList("127.0.0.1:9000");
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].host, "127.0.0.1");
  EXPECT_EQ(one[0].port, 9000);
  EXPECT_EQ(one[0].Label(), "127.0.0.1:9000");
  const std::vector<HostEndpoint> two = ParseHostList("alpha:1, beta:65535");
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].host, "alpha");
  EXPECT_EQ(two[0].port, 1);
  EXPECT_EQ(two[1].host, "beta");
  EXPECT_EQ(two[1].port, 65535);
}

TEST(ParseHostListTest, RejectsMalformedLists) {
  EXPECT_THROW(ParseHostList("nohost"), std::invalid_argument);
  EXPECT_THROW(ParseHostList(":9000"), std::invalid_argument);
  EXPECT_THROW(ParseHostList("host:"), std::invalid_argument);
  EXPECT_THROW(ParseHostList("host:0"), std::invalid_argument);
  EXPECT_THROW(ParseHostList("host:65536"), std::invalid_argument);
  EXPECT_THROW(ParseHostList("host:12x"), std::invalid_argument);
  EXPECT_THROW(ParseHostList("a:1,,b:2"), std::invalid_argument);
}

// --- clean multi-agent runs --------------------------------------------------

TEST(TransportTest, CleanTwoAgentRunIsByteIdentical) {
  const std::vector<SimSpec> specs = TinyGrid();
  const std::string golden = InProcessCsv(specs);
  AgentProc a, b;
  const FabricRun run =
      RunSharded(specs, TcpOptions(a.Label() + "," + b.Label(),
                                   /*max_attempts=*/1));
  EXPECT_EQ(run.csv, golden);
  EXPECT_TRUE(run.report.complete());
  EXPECT_EQ(run.report.conn_failures, 0u);
  EXPECT_EQ(run.report.workers_launched, run.report.shard_count);
  EXPECT_EQ(run.report.rows_merged, specs.size());
  EXPECT_NE(run.report.transport.find("tcp (2 agents"), std::string::npos)
      << run.report.transport;
}

TEST(TransportTest, SingleAgentDrainsTheWholeQueue) {
  // Work stealing degenerates gracefully: one agent, more units than
  // slots — the queue drains serially through the single connection slot.
  const std::vector<SimSpec> specs = TinyGrid();
  const std::string golden = InProcessCsv(specs);
  AgentProc a;
  const FabricRun run =
      RunSharded(specs, TcpOptions(a.Label(), /*max_attempts=*/1,
                                   /*units=*/3));
  EXPECT_EQ(run.csv, golden);
  EXPECT_TRUE(run.report.complete());
  EXPECT_EQ(run.report.shard_count, 3u);
  EXPECT_EQ(run.report.workers_launched, 3u);
}

// --- worker faults travel through the wire unchanged -------------------------

TEST(TransportTest, WorkerCrashHealsOverTcp) {
  const std::vector<SimSpec> specs = TinyGrid();
  const std::string golden = InProcessCsv(specs);
  const FaultEnv fault("crash-before-cell=2;exit-code=9");
  AgentProc a, b;  // spawned after FaultEnv: workers inherit the plan
  const FabricRun run = RunSharded(
      specs, TcpOptions(a.Label() + "," + b.Label(), /*max_attempts=*/3));
  EXPECT_EQ(run.csv, golden);
  EXPECT_TRUE(run.report.complete());
  EXPECT_GE(run.report.retries, 1u);
  EXPECT_EQ(run.report.bisections, 0u);
  EXPECT_EQ(run.report.workers_launched,
            run.report.shard_count + run.report.retries);
  // Units travel on worker stdin, failed ones included: --work-dir stays
  // empty on both agents.
  EXPECT_TRUE(std::filesystem::is_empty(a.work_dir()));
  EXPECT_TRUE(std::filesystem::is_empty(b.work_dir()));
}

// --- dead hosts --------------------------------------------------------------

TEST(TransportTest, DeadHostIsRoutedAround) {
  const std::vector<SimSpec> specs = TinyGrid();
  const std::string golden = InProcessCsv(specs);
  AgentProc live;
  const std::uint16_t dead = DeadPort();
  const FabricRun run = RunSharded(
      specs, TcpOptions(live.Label() + ",127.0.0.1:" + std::to_string(dead),
                        /*max_attempts=*/1));
  EXPECT_EQ(run.csv, golden);
  EXPECT_TRUE(run.report.complete());
  EXPECT_GE(run.report.conn_failures, 1u);
  // Routed-around dispatches leave no launch accounting behind.
  EXPECT_EQ(run.report.workers_launched, run.report.shard_count);
}

TEST(TransportTest, AllHostsDeadFailsLoudly) {
  const std::vector<SimSpec> specs = TinyGrid();
  const std::uint16_t dead1 = DeadPort();
  const std::uint16_t dead2 = DeadPort();
  ShardedRunnerOptions options =
      TcpOptions("127.0.0.1:" + std::to_string(dead1) + ",127.0.0.1:" +
                     std::to_string(dead2),
                 /*max_attempts=*/1, /*units=*/2);
  options.connect_timeout_s = 1.0;
  ShardedRunner runner(options);
  try {
    runner.Run(specs);
    FAIL() << "an unreachable fabric must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("could not be dispatched"), std::string::npos) << what;
    EXPECT_NE(what.find("unreachable"), std::string::npos) << what;
  }
}

// --- network faults mid-unit -------------------------------------------------

TEST(TransportTest, AgentKilledMidStreamHealsElsewhere) {
  const std::vector<SimSpec> specs = TinyGrid();
  const std::string golden = InProcessCsv(specs);
  const FaultEnv fault("kill-agent-at-cell=3;attempts=1");
  AgentProc a, b;
  const FabricRun run = RunSharded(
      specs, TcpOptions(a.Label() + "," + b.Label(), /*max_attempts=*/3));
  // The agent serving cell 3's unit SIGKILLs itself mid-stream; the rows
  // it already forwarded are kept, the missing ones re-run on the
  // survivor, and the merged bytes still match the single-process run.
  EXPECT_EQ(run.csv, golden);
  EXPECT_TRUE(run.report.complete());
  EXPECT_GE(run.report.retries, 1u);
  EXPECT_EQ(run.report.rows_merged, specs.size());
}

TEST(TransportTest, BogusHeaderGetsErrAndAgentSurvives) {
  AgentProc a;
  {
    Socket probe = ConnectTcp("127.0.0.1", a.port(), 5.0);
    std::string greeting;
    ASSERT_EQ(probe.RecvLineWithTimeout(5.0, &greeting), RecvLineStatus::kLine);
    EXPECT_EQ(greeting, kFabricGreeting);
    SendLine(probe, "unit origin=banana");
    std::string reply;
    ASSERT_EQ(probe.RecvLineWithTimeout(5.0, &reply), RecvLineStatus::kLine);
    EXPECT_EQ(reply.rfind("err msg=", 0), 0u) << reply;
    EXPECT_NE(reply.find("origin=banana"), std::string::npos) << reply;
  }
  for (const std::string token : {"attempt=0", "cells=99999999999", "threads=-1"}) {
    const std::string reply = AgentReplyTo(a.port(), "unit origin=0 cells=1 " + token);
    EXPECT_EQ(reply.rfind("err msg=", 0), 0u) << reply;
    EXPECT_NE(reply.find(token), std::string::npos) << reply;
  }
  {
    // A cell line with no tab passes the agent untouched; the worker's
    // ReadShardFile rejects it, naming the line, and the unit ends unclean.
    Socket probe = ConnectTcp("127.0.0.1", a.port(), 5.0);
    std::string greeting;
    ASSERT_EQ(probe.RecvLineWithTimeout(5.0, &greeting), RecvLineStatus::kLine);
    probe.SendAll("unit origin=0 cells=1\nnotab\nend\n");
    FrameReader reader(std::move(probe));
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!reader.Drain() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(reader.terminal(), "done exit=1");
    EXPECT_NE(reader.LogTail().find("shard file line 2: expected '<index>\\t<spec>'"),
              std::string::npos)
        << reader.LogTail();
  }
  // The protocol error poisoned nothing: the same agent still serves a
  // full grid correctly afterwards.
  const std::vector<SimSpec> specs = TinyGrid();
  const FabricRun run =
      RunSharded(specs, TcpOptions(a.Label(), /*max_attempts=*/1, /*units=*/2));
  EXPECT_EQ(run.csv, InProcessCsv(specs));
  EXPECT_TRUE(run.report.complete());
}

TEST(TransportTest, AgentRejectsOutOfRangePort) {
  // Out of range, or not a number at all: "abc" must not fall back to an
  // ephemeral port.
  for (const std::string port : {"70000", "abc"}) {
    SCOPED_TRACE("--port=" + port);
    const std::string dir = MakeTempDir("hs-transport-test-");
    Subprocess agent = Subprocess::Spawn(
        {SelfExeDir() + "/hs_agent", "--port=" + port, "--port-file=" + dir + "/agent.port"},
        "", dir + "/agent.stderr");
    const bool exited = agent.WaitFor(10.0);
    if (!exited) agent.Kill();
    const ProcessStatus status = agent.Wait();
    EXPECT_TRUE(exited) << "hs_agent kept running";
    EXPECT_FALSE(status.ok());
    EXPECT_FALSE(std::filesystem::exists(dir + "/agent.port"));  // never listened
    EXPECT_NE(ReadTextFile(dir + "/agent.stderr").find(port), std::string::npos);
    RemoveTreeBestEffort(dir);
  }
}

// --- local exec and TCP read one frame stream --------------------------------

TEST(TransportTest, WorkerFaultsMatchAcrossLocalExecAndTcp) {
  // The same worker fault plans through local exec and through one agent:
  // one frame reader means equal retries, equal launches, equal bytes.
  const std::vector<SimSpec> specs = TinyGrid();
  const std::string golden = InProcessCsv(specs);
  for (const char* plan : {"crash-before-cell=2;signal=9",
                           "crash-before-cell=4;torn-final-line;exit-code=3",
                           "drop-every=2"}) {
    SCOPED_TRACE(std::string("HS_FAULT=") + plan);
    const FaultEnv fault(plan);
    ShardedRunnerOptions options = TcpOptions("", /*max_attempts=*/3, /*units=*/3);
    options.worker_threads = 1;
    const FabricRun local = RunSharded(specs, options);
    AgentProc agent;  // spawned under the plan: its workers inherit it
    options.hosts = agent.Label();
    const FabricRun tcp = RunSharded(specs, options);
    EXPECT_EQ(local.csv, golden);
    EXPECT_EQ(tcp.csv, local.csv);
    EXPECT_GE(local.report.retries, 1u);
    EXPECT_EQ(tcp.report.retries, local.report.retries);
    EXPECT_EQ(tcp.report.workers_launched, local.report.workers_launched);
    EXPECT_EQ(tcp.report.cells_scattered, local.report.cells_scattered);
    EXPECT_NE(local.report.transport.find("local-exec"), std::string::npos);
    EXPECT_NE(tcp.report.transport.find("tcp (1 agents"), std::string::npos);
  }
}

// --- the differential: seeded network-fault schedules ------------------------

TEST(TransportTest, SeededNetworkFaultScheduleDifferential) {
  const std::vector<SimSpec> specs = TinyGrid();
  const std::string golden = InProcessCsv(specs);
  const int kTrials = 12;
  for (int trial = 0; trial < kTrials; ++trial) {
    Rng rng(0xFAB41Cu + static_cast<std::uint64_t>(trial));
    const long long cell =
        rng.UniformInt(0, static_cast<std::int64_t>(specs.size()) - 1);
    std::string plan;
    ShardedRunnerOptions options;
    options.retry.max_attempts = 3;
    options.retry.backoff_initial_s = 0.01;
    options.retry.backoff_max_s = 0.05;
    options.retry.jitter_seed = static_cast<std::uint64_t>(trial);
    options.shards = 4;
    switch (trial % 4) {
      case 0:  // connection dropped instead of forwarding a row
        plan = "drop-conn-at-cell=" + std::to_string(cell);
        break;
      case 1:  // half a frame, no newline, then hangup
        plan = "torn-frame-at-cell=" + std::to_string(cell);
        break;
      case 2:  // the whole agent SIGKILLed mid-stream: a host dies
        plan = "kill-agent-at-cell=" + std::to_string(cell);
        break;
      default:  // open connection, silent forever: stalled heartbeat
        plan = "stall-at-cell=" + std::to_string(cell);
        options.shard_timeout_s = 1.0;
        break;
    }
    SCOPED_TRACE("trial " + std::to_string(trial) + ": HS_FAULT=" + plan);
    const FaultEnv fault(plan);
    // Fresh agents per trial: a kill-agent trial leaves a corpse behind,
    // and every trial must start from two healthy hosts.
    AgentProc a, b;
    options.hosts = a.Label() + "," + b.Label();
    const FabricRun run = RunSharded(specs, options);
    // Every schedule heals on retry (attempts=1 default): the fabric must
    // deliver the exact single-process bytes, every trial.
    EXPECT_EQ(run.csv, golden);
    EXPECT_TRUE(run.report.complete());
    EXPECT_EQ(run.report.rows_merged, specs.size());
    if (trial % 4 == 3) EXPECT_GE(run.report.hang_kills, 1u);
  }
}

}  // namespace
}  // namespace hs
