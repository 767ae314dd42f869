#!/bin/sh
# Smoke run of every bench_spec_grid sweep at one week x one seed, plus the
# default grid on the generator presets the differential does not cover.
# An unknown sweep name must be a usage error (exit 2) whose message lists
# every sweep run here.
#
#   sh tests/bench_sweeps_smoke.sh BIN_DIR
set -eu
bin=$1
work=$(mktemp -d "${TMPDIR:-/tmp}/hs-sweeps-smoke-XXXXXX")
trap 'rm -rf "$work"' EXIT

sweeps="grid table2 fig6 fig7 backfill failures malleable-min od-share expand
static-partition warning"
for sweep in $sweeps; do
  "$bin/bench_spec_grid" --sweep="$sweep" --weeks=1 --seeds=1 > /dev/null
done
"$bin/bench_spec_grid" --weeks=1 --seeds=1 --preset=diurnal > /dev/null
"$bin/bench_spec_grid" --weeks=1 --seeds=1 --preset=aimix --digest > /dev/null
"$bin/bench_spec_grid" --weeks=1 --seeds=1 --preset=paper-xl > /dev/null

status=0
"$bin/bench_spec_grid" --sweep=bogus > /dev/null 2> "$work/err" || status=$?
if [ "$status" -ne 2 ]; then
  echo "--sweep=bogus exited $status, want 2" >&2
  exit 1
fi
for sweep in $sweeps; do
  if ! grep -q -- "$sweep" "$work/err"; then
    echo "--sweep=bogus error does not name '$sweep':" >&2
    cat "$work/err" >&2
    exit 1
  fi
done
echo "every sweep ran; an unknown sweep is rejected naming them all"
