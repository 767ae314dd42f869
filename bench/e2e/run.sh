#!/usr/bin/env bash
# Builds and runs one workload of the end-to-end benchmark of record
# (README.md here):
#
#   bench/e2e/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#
# Flags also take the --flag=value form. It builds hs_bench plus the
# hs_server, hs_agent and hs_worker it drives into $HS_E2E_BUILD (default
# .bench_build/e2e at the repository root), against the tree at $HS_ROOT
# (default: this repository), then runs the workload in its own process.
# It prints `workload metric value unit` lines, check results on stderr,
# and last the run's JSON result line. A traced run (--trace 1) also
# writes trace-NAME.json (Chrome trace events) into the build directory.
# Exit status is non-zero when the build or any output check fails.
set -u -o pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
build=${HS_E2E_BUILD:-$root/.bench_build/e2e}

workload=
seed=1
seconds=
trace=0
smoke=0
while [ $# -gt 0 ]; do
  arg=$1
  shift
  case $arg in
    --smoke) key=$arg; value=1 ;;
    --*=*) key=${arg%%=*}; value=${arg#*=} ;;
    --*) key=$arg; value=${1-}; shift || true ;;
    *) echo "run.sh: unexpected argument '$arg'" >&2; exit 2 ;;
  esac
  case $key in
    --workload) workload=$value ;;
    --seed) seed=$value ;;
    --seconds) seconds=$value ;;
    --trace) trace=$value ;;
    --smoke) smoke=$value ;;
    *) echo "run.sh: unknown flag '$key'" >&2; exit 2 ;;
  esac
done
if [ -z "$workload" ]; then
  echo "usage: run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]" >&2
  exit 2
fi
if [ -z "$seconds" ]; then
  if [ "$smoke" = 1 ]; then seconds=1; else seconds=15; fi
fi

if [ ! -f "$build/build.ninja" ] && [ ! -f "$build/Makefile" ]; then
  generator=()
  if command -v ninja > /dev/null; then generator=(-G Ninja); fi
  cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release \
    ${HS_ROOT:+-DHS_ROOT="$HS_ROOT"} >&2 || exit 1
fi
cmake --build "$build" -j "$(nproc)" >&2 || exit 1

flags=(--workload="$workload" --seed="$seed" --seconds="$seconds" --trace="$trace"
       --digests="$here/digests.txt")
if [ "$smoke" = 1 ]; then flags+=(--smoke); fi
if [ "$trace" = 1 ]; then flags+=(--trace-out="$build/trace-$workload.json"); fi
# The timeout stops hs_bench if it ever hangs; its own destructors reap the
# servers, agents and workers it started.
exec timeout -k 5 175 "$build/bin/hs_bench" "${flags[@]}"
