#!/usr/bin/env bash
# Same-code A/B of the end-to-end benchmark against a base revision.
#
#   bench/e2e/ab.sh <ref> [--pairs=N] [--workloads=a,b] [--seconds=S] [--smoke]
#
# Exports <ref>'s tree with `git archive` (offline, and nothing is
# registered in the repository), builds the *current* bench/e2e against it
# (HS_ROOT) and against this checkout, then runs N interleaved
# base/candidate pairs per workload (default 10): pair i runs seed i on
# both sides and alternates which side goes first. It ends with
# stats.py's table -- each side's median and quartiles, the candidate's
# win fraction, and a verdict per (metric, workload). Raw results stay in
# .bench_build/ab/<sha>/{base,cand}.jsonl, one line per run. `ab.sh HEAD`
# on an unchanged checkout is the same-code noise check. Exit status is
# non-zero when a pair regressed or a run failed its checks.
set -u -o pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)

if [ $# -lt 1 ] || [ "${1#--}" != "$1" ]; then
  echo "usage: ab.sh <ref> [--pairs=N] [--workloads=a,b] [--seconds=S] [--smoke]" >&2
  exit 2
fi
ref=$1
shift
pairs=10
workloads=paper_grid,aimix_storm,service_mix,fabric_local,fabric_tcp
extra=()
for arg in "$@"; do
  case $arg in
    --pairs=*) pairs=${arg#*=} ;;
    --workloads=*) workloads=${arg#*=} ;;
    --seconds=*|--smoke) extra+=("$arg") ;;
    *) echo "ab.sh: unknown flag '$arg'" >&2; exit 2 ;;
  esac
done

sha=$(git -C "$root" rev-parse --verify "$ref^{commit}") || exit 2
dir=$root/.bench_build/ab/$sha
if [ ! -f "$dir/tree/CMakeLists.txt" ]; then
  rm -rf "$dir/tree"
  mkdir -p "$dir/tree"
  git -C "$root" archive "$sha" | tar -x -C "$dir/tree" || exit 1
fi
rm -f "$dir/base.jsonl" "$dir/cand.jsonl"

# One run of one side; appends {"workload", "seed", "result"} to its file.
run() {
  local which=$1 workload=$2 seed=$3 result
  if [ "$which" = base ]; then
    result=$(HS_ROOT="$dir/tree" HS_E2E_BUILD="$dir/build" \
      "$here/run.sh" --workload="$workload" --seed="$seed" "${extra[@]}" 2> /dev/null)
  else
    result=$("$here/run.sh" --workload="$workload" --seed="$seed" "${extra[@]}" 2> /dev/null)
  fi
  local status=$? last
  last=$(printf '%s\n' "$result" | tail -n 1)
  if [ "${last#\{}" != "$last" ]; then
    printf '{"workload": "%s", "seed": %s, "result": %s}\n' "$workload" "$seed" "$last" \
      >> "$dir/$which.jsonl"
  fi
  return $status
}

status=0
for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then order="base cand"; else order="cand base"; fi
  for workload in ${workloads//,/ }; do
    for which in $order; do
      if ! run "$which" "$workload" "$i"; then
        echo "ab.sh: $which run of $workload (seed $i) failed" >&2
        status=1
      fi
    done
  done
done

python3 "$here/stats.py" ab "$dir/base.jsonl" "$dir/cand.jsonl" \
  --benchmark "$root/BENCHMARK.json" || status=1
exit $status
