#!/bin/sh
# Service smoke on the real binaries: live hs_servers driven by hs_client.
#
#   sh tests/service_smoke.sh BIN_DIR
#
# 1. The live `whatif` answer (the fork path) must equal the answer
#    hs_client --oracle-snapshot computes from a snapshot (op-log replay).
# 2. One client streams `watch` ticks while another mutates the session:
#    every owed tick arrives, and the final snapshot equals its own serial
#    replay.
# 3. Out-of-range ports are usage errors, never a wrapped port.
set -eu
bin=$1
work=$(mktemp -d "${TMPDIR:-/tmp}/hs-service-smoke-XXXXXX")
server_pid=
cleanup() {
  if [ -n "$server_pid" ]; then kill "$server_pid" 2> /dev/null || true; fi
  rm -rf "$work"
}
trap cleanup EXIT
cd "$work"

start_server() {
  rm -f port.txt
  "$bin/hs_server" --spec='CUP&SPAA/FCFS/W5/preset=midsize' --port-file=port.txt \
    > server.log 2>&1 &
  server_pid=$!
  for _ in $(seq 1 100); do [ -s port.txt ] && break; sleep 0.1; done
  port=$(cat port.txt)
}
stop_server() {
  client shutdown > /dev/null
  wait "$server_pid"
  server_pid=
}
client() { "$bin/hs_client" --port="$port" "$@"; }
oracle() { "$bin/hs_client" --oracle-snapshot="$@"; }

# 1. live what-if vs the snapshot-replay oracle
start_server
client advance by=172800 > /dev/null
client submit class=od size=256 compute=3600 estimate=4000 notice=+600 \
  predicted=+3600 submit=+3600 > /dev/null
client advance by=7200 > /dev/null
client query-metrics > /dev/null
client snapshot path=state.snap > /dev/null
client whatif size=512 compute=3600 estimate=4000 submit=+600 > whatif_live.txt
oracle state.snap whatif size=512 compute=3600 estimate=4000 submit=+600 > whatif_oracle.txt
diff whatif_live.txt whatif_oracle.txt
stop_server

# 2. a watch stream beside a mutator vs the serial replay oracle
start_server
client watch every=900 count=5 > watch.txt &
watch_pid=$!
for _ in $(seq 1 100); do grep -q '^tick seq=0 ' watch.txt && break; sleep 0.1; done
client advance by=3600 > /dev/null
client submit class=rigid size=64 compute=1800 submit=+600 > /dev/null
client advance by=3600 > /dev/null
wait "$watch_pid"
test "$(grep -c '^tick ' watch.txt)" = 5
grep -q '^end$' watch.txt
client snapshot path=final.snap > /dev/null
oracle final.snap snapshot path=oracle.snap > /dev/null
diff final.snap oracle.snap
stop_server

# 3. ports outside 0..65535 (1..65535 for the client) are usage errors
if "$bin/hs_client" --port=70000 ping 2> err.txt; then exit 1; fi
grep -q usage err.txt
if timeout 10 "$bin/hs_server" --spec='baseline/FCFS/W5/preset=tiny' \
    --port=4294967377 2> err.txt; then
  exit 1
fi
grep -q usage err.txt
echo "service smoke: what-if and watch answers match the replay oracle"
