#!/usr/bin/env bash
# Process-level fleet smoke: the daemons' real serve paths, end to end.
#
#   fusionsd x3 (R1-R3 of dmv.ini, FUSIONP/1)
#     <- fusionqd x2 (a generated catalog of `endpoint =` lines)
#       <- fusionrd (FUSIONQ/1 router)
#         <- fusionq --connect
#
# The answer through the router must equal the embedded fusionq answer, and
# every daemon must exit 0 within 5 s of SIGTERM.
#
# Usage: fleet_smoke.sh <tools-bin-dir> <examples/data dir> <work dir>
set -u

BIN=$1
DATA=$2
WORK=$3
SQL="SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"

rm -rf "$WORK"
mkdir -p "$WORK"
PIDS=()
NAMES=()

cleanup() {
  for pid in "${PIDS[@]}"; do kill -KILL "$pid" 2>/dev/null; done
}
trap cleanup EXIT

fail() {
  echo "fleet smoke: FAIL: $*"
  for log in "$WORK"/*.log; do
    echo "--- $log"
    cat "$log"
  done
  exit 1
}

# Starts a daemon in the background; its port lands in $WORK/<name>.port.
start() {
  local name=$1
  shift
  "$@" --port=0 --port-file="$WORK/$name.port" >"$WORK/$name.log" 2>&1 &
  PIDS+=($!)
  NAMES+=("$name")
}

# Sets PORT to the daemon's bound port, waiting up to 5 s for it.
wait_port() {
  local name=$1
  for _ in $(seq 1 500); do
    if [ -s "$WORK/$name.port" ]; then
      PORT=$(tr -d '\n' <"$WORK/$name.port")
      return 0
    fi
    sleep 0.01
  done
  fail "$name never wrote its port file"
}

for source in R1 R2 R3; do
  start "sd-$source" "$BIN/fusionsd" --catalog="$DATA/dmv.ini" --source="$source"
done
: >"$WORK/remote.ini"
for source in R1 R2 R3; do
  wait_port "sd-$source"
  printf '[source %s]\nendpoint = 127.0.0.1:%s\n\n' "$source" "$PORT" \
    >>"$WORK/remote.ini"
done

for shard in 0 1; do
  start "qd-$shard" "$BIN/fusionqd" --catalog="$WORK/remote.ini" \
    --name="shard-$shard"
done
ROUTER_ARGS=()
for shard in 0 1; do
  wait_port "qd-$shard"
  ROUTER_ARGS+=("--shard=127.0.0.1:$PORT")
done
start rd "$BIN/fusionrd" "${ROUTER_ARGS[@]}"
wait_port rd
ROUTER_PORT=$PORT

EMBEDDED=$("$BIN/fusionq" --catalog="$DATA/dmv.ini" --sql="$SQL" | grep '^answer') ||
  fail "embedded fusionq failed"
for run in 1 2; do
  ROUTED=$("$BIN/fusionq" --connect="127.0.0.1:$ROUTER_PORT" --sql="$SQL" \
    2>"$WORK/fusionq-$run.err" | grep '^answer') ||
    fail "fusionq --connect run $run failed: $(cat "$WORK/fusionq-$run.err")"
  [ "$ROUTED" = "$EMBEDDED" ] ||
    fail "run $run answered '$ROUTED', embedded answered '$EMBEDDED'"
done

# Front to back, like an operator draining the fleet.
for i in 5 3 4 0 1 2; do
  pid=${PIDS[$i]}
  kill -TERM "$pid"
  for _ in $(seq 1 500); do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.01
  done
  kill -0 "$pid" 2>/dev/null && fail "${NAMES[$i]} still running 5 s after SIGTERM"
  wait "$pid"
  status=$?
  [ "$status" -eq 0 ] || fail "${NAMES[$i]} exited $status after SIGTERM"
done
PIDS=()
echo "fleet smoke: ok ($EMBEDDED through fusionrd, 2 fusionqd, 3 fusionsd)"
