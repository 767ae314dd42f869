#!/bin/sh
# Merge-determinism contract on the real binaries: the 3-shard
# multi-process spec grid must be byte-identical to the single-process run
# on every simulation-content column, for the default preset and for the
# generator-based burst preset.
#
#   sh tests/sharded_grid_diff.sh BIN_DIR
#
# The sharded runs go through hs_worker with each unit on its stdin, so
# under the sanitizer build this also runs the stdin/memfd spawn path.
set -eu
bin=$1
work=$(mktemp -d "${TMPDIR:-/tmp}/hs-grid-diff-XXXXXX")
trap 'rm -rf "$work"' EXIT
cd "$work"

"$bin/bench_spec_grid" --quick --out=grid_single.csv --strip-wallclock > /dev/null
"$bin/bench_spec_grid" --quick --out=grid_sharded.csv --strip-wallclock --shards=3 > /dev/null
diff grid_single.csv grid_sharded.csv
"$bin/bench_spec_grid" --quick --preset=burst --digest --out=burst_single.csv \
  --strip-wallclock > /dev/null
"$bin/bench_spec_grid" --quick --preset=burst --digest --out=burst_sharded.csv \
  --strip-wallclock --shards=3 > /dev/null
diff burst_single.csv burst_sharded.csv
# A paper sweep through the same fabric: every sweep, not only the grid.
"$bin/bench_spec_grid" --sweep=fig7 --quick --out=fig7_single.csv \
  --strip-wallclock > /dev/null
"$bin/bench_spec_grid" --sweep=fig7 --quick --out=fig7_sharded.csv \
  --strip-wallclock --shards=3 > /dev/null
diff fig7_single.csv fig7_sharded.csv
echo "sharded grids are byte-identical to the single-process grids"
