#!/usr/bin/env bash
# Crash-restart smoke on the real-process cluster: start the 12-replica
# loopback topology with durable data dirs, drive ahlctl load, kill -9 one
# shard replica mid-load, restart it, and assert that
#   (a) the load run completes despite the crash (f=1 tolerated),
#   (b) the restarted process recovers from its snapshot+WAL (greppable
#       "recovered snapshot" marker) and rejoins (its
#       pbft_executed_txs_total counter moves),
#   (c) a second load run over the recovered cluster completes cleanly.
# The exact per-replica balance-conservation check lives in the in-process
# equivalent, TestLiveClusterReplicaRestartRecovery (internal/core), which
# CI runs under -race; this script proves the same story end-to-end with
# real processes and a real SIGKILL. Run from the repository root.
set -euo pipefail

TOPO="examples/livecluster/topology.json"
BIN="$(mktemp -d)"
DATA="$BIN/data"
VICTIM=3 # shard 0, replica index 3 — never the initial leader
VICTIM_PID=""
LAST_PID=""
PIDS=()
# The victim pid is already dead when the trap fires, so the kill must
# not abort the trap under set -e.
trap 'kill "${PIDS[@]}" 2>/dev/null || true; rm -rf "$BIN"' EXIT INT TERM

# build_tool compiles one command into $BIN and refuses to continue on
# failure: a stale or missing binary would invalidate the whole smoke.
build_tool() {
  local pkg="$1" out="$2"
  if ! go build -o "$out" "$pkg"; then
    echo "FAIL: go build $pkg failed — refusing to run with a stale/missing binary" >&2
    exit 1
  fi
  if [ ! -x "$out" ]; then
    echo "FAIL: $out not produced by go build $pkg" >&2
    exit 1
  fi
}

echo "== building ahlnode + ahlctl"
build_tool ./cmd/ahlnode "$BIN/ahlnode"
build_tool ./cmd/ahlctl "$BIN/ahlctl"

start_node() {
  "$BIN/ahlnode" -topo "$TOPO" -id "$1" -data "$DATA" -status 1s 2>"$BIN/node$1$2.log" &
  LAST_PID=$!
  PIDS+=("$LAST_PID")
}

echo "== starting 12 replicas with data dirs under $DATA"
for id in 0 1 2 3 4 5 6 7 8 9 10 11; do
  start_node "$id" ""
  if [ "$id" = "$VICTIM" ]; then VICTIM_PID="$LAST_PID"; fi
done
sleep 1

echo "== driving load (background)"
"$BIN/ahlctl" load -topo "$TOPO" -accounts 32 -txs 1000 -outstanding 8 -cross 0.5 \
  -timeout 180s >"$BIN/ctl1.log" 2>&1 &
CTL=$!

sleep 2
echo "== kill -9 node $VICTIM (pid $VICTIM_PID) mid-load"
kill -9 "$VICTIM_PID"
sleep 2

echo "== restarting node $VICTIM"
start_node "$VICTIM" "-restarted"

echo "== waiting for the load run"
if ! wait "$CTL"; then
  echo "FAIL: ahlctl load run failed despite single-replica crash" >&2
  cat "$BIN/ctl1.log" >&2
  exit 1
fi
if ! grep '^  transactions' "$BIN/ctl1.log"; then
  echo "FAIL: no transaction summary in the first load run" >&2
  cat "$BIN/ctl1.log" >&2
  exit 1
fi

echo "== checking recovery markers on node $VICTIM"
if ! grep -q "recovered snapshot" "$BIN/node$VICTIM-restarted.log"; then
  echo "FAIL: restarted node never ran boot recovery" >&2
  cat "$BIN/node$VICTIM-restarted.log" >&2
  exit 1
fi

# Rejoin: the restarted replica must execute new blocks (statesync + new
# traffic). Boot replay does not count toward pbft_executed_txs_total, and
# the -status line prints only nonzero counters, so any value means it
# rejoined.
rejoined=""
execd=""
for _ in $(seq 1 30); do
  execd="$(sed -n 's/.*pbft_executed_txs_total=\([0-9]*\).*/\1/p' "$BIN/node$VICTIM-restarted.log" | tail -1)"
  if [ -n "$execd" ] && [ "$execd" -gt 0 ]; then rejoined=yes; break; fi
  sleep 1
done
if [ -z "$rejoined" ]; then
  echo "FAIL: restarted node never executed anything (no rejoin)" >&2
  cat "$BIN/node$VICTIM-restarted.log" >&2
  exit 1
fi
echo "   node $VICTIM rejoined (pbft_executed_txs_total=$execd)"

echo "== second load run over the recovered cluster"
if ! "$BIN/ahlctl" load -topo "$TOPO" -accounts 32 -txs 200 -cross 0.5 -seed 2 \
  -timeout 120s >"$BIN/ctl2.log" 2>&1; then
  echo "FAIL: post-recovery load run failed" >&2
  cat "$BIN/ctl2.log" >&2
  exit 1
fi
if ! grep '^  transactions' "$BIN/ctl2.log"; then
  echo "FAIL: no transaction summary in the second load run" >&2
  cat "$BIN/ctl2.log" >&2
  exit 1
fi

echo "restart smoke OK"
