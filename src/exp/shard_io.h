// Wire formats of the multi-process experiment runner (ShardedRunner on
// the orchestrator side, hs_worker on the shard side).
//
// Shard text — what the orchestrator scatters. First line is the version
// header, then one cell per line, global spec index and canonical spec
// string (SimSpec::ToString, so the SimSpec print/parse round-trip is the
// serialization):
//
//   # hs-shard v1
//   0	CUP&SPAA/FCFS/W5/seed=800
//   7	baseline/SJF/W2/weeks=4
//
// No file is written: the text reaches hs_worker on its stdin (SpawnWorker,
// exp/transport.h). hs_agent rebuilds it from the `unit` frame's cell lines
// unchanged, so the worker's ReadShardFile is their one parser.
//
// Worker result rows — what each worker sends back. One `row` frame of the
// `# hs-fabric` stream (exp/transport.h) per completed cell, on the one
// key=value grammar of util/parse.h: the global spec index first, then
// the spec, the trace name and every SimResult field under its CSV name
// (kResultFields, metrics/collector.h), closed by the bare key `end`.
// hs_worker flushes it as the cell finishes, followed by a `# hs-progress`
// heartbeat:
//
//   row index=7 spec=CUP&SPAA/FCFS/W5/seed=800 trace=... avg_turnaround_h=... end
//   # hs-progress cell=7
//
// Values are percent-encoded (space, newline and '%'), so only a complete
// line ends in ` end` and a torn row never parses. Doubles are printed at
// 17 significant digits, which makes text round-trips bit-exact: the
// orchestrator re-parses rows and re-formats them through the normal CSV
// sink, producing output byte-identical to a single-process run on every
// simulation-content column. Parsing is strict — unknown, repeated or
// missing keys, bad numbers and a missing `end` all throw, so a version
// skew between orchestrator and worker fails loudly instead of merging
// garbage.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "exp/sim_spec.h"

namespace hs {

/// One scattered cell: position in the global spec vector + the spec.
struct IndexedSpec {
  std::size_t index = 0;
  SimSpec spec;
};

/// One gathered cell: position in the global spec vector + the full row.
struct IndexedSpecResult {
  std::size_t index = 0;
  SpecResult row;
};

/// The version header, the first line of every shard text.
inline constexpr const char* kShardHeader = "# hs-shard v1";

/// Writes one `<index>\t<spec>` line per cell of `indices` (positions
/// into `specs`).
void WriteShardCells(std::ostream& out, const std::vector<std::size_t>& indices,
                     const std::vector<SimSpec>& specs);
/// The header line, then WriteShardCells: a whole shard text.
void WriteShardFile(std::ostream& out, const std::vector<std::size_t>& indices,
                    const std::vector<SimSpec>& specs);

/// Parses a shard text; throws std::runtime_error (with a line number) on a
/// bad header, malformed line, bad index (strictly a non-negative decimal),
/// invalid spec string, or duplicate index.
std::vector<IndexedSpec> ReadShardFile(std::istream& in);

/// Writes one newline-terminated `row ... end` frame.
void WriteWorkerRow(std::ostream& out, std::size_t index, const SpecResult& row);

/// Parses one `row ... end` frame line (without its newline); throws
/// std::invalid_argument naming the offending token on a missing `end`,
/// an unknown, repeated or missing key, a bad number or an invalid spec.
IndexedSpecResult ParseWorkerRow(const std::string& line);

}  // namespace hs
