#!/usr/bin/env bash
# Live 12-process smoke: start the 12-replica loopback topology with the
# WAL on (fsync: interval — the deployment-recommended group-commit
# mode), drive a closed-loop SmallBank mix through ahlctl, then — while
# the cluster is still up — assert balance conservation through the query
# layer and capture every replica's observability endpoints. Nothing else
# runs those two legs against real ahlnode processes. Throughput is not
# gated here: the repository's benchmark is benchmark/ (BENCHMARK.json).
#
# Environment knobs (all optional):
#   LIVE_PERF_TXS          transactions to drive         (default 3000)
#   LIVE_PERF_OUTSTANDING  closed-loop window            (default 128)
#   LIVE_PERF_OBS_DIR      observability artifact dir    (default BENCH_live_obs)
#
# After the load run the script scrapes every replica's /metrics (plus
# node 0's /snapshot, /trace, and a 1s pprof CPU profile) into
# LIVE_PERF_OBS_DIR as a CI artifact, and fails if no replica reports a
# nonzero pbft_pipeline_occupancy_peak — a load run that never overlapped
# consensus instances means the pipeline (or its instrumentation) is
# broken — or if any replica's storage_wal_bytes_since_root (the WAL a
# restart would replay) is missing or two segments or more.
#
# Run from the repository root.
set -euo pipefail

TXS="${LIVE_PERF_TXS:-3000}"
OUTSTANDING="${LIVE_PERF_OUTSTANDING:-128}"
OBS_DIR="${LIVE_PERF_OBS_DIR:-BENCH_live_obs}"

BIN="$(mktemp -d)"
DATA="$BIN/data"
TOPO="$BIN/topology.json"
PIDS=()
trap 'kill "${PIDS[@]}" 2>/dev/null || true; rm -rf "$BIN"' EXIT INT TERM

# build_tool compiles one command into $BIN and refuses to continue on
# failure: a stale or missing binary must never masquerade as a result.
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

# The perf topology mirrors examples/livecluster/topology.json (2 shards
# of 4 + reference committee of 4 + 1 client) but journals every replica
# with interval fsync, and uses its own port range so it can run next to
# the example cluster.
cat >"$TOPO" <<'EOF'
{
  "seed": 42,
  "variant": "ahl+",
  "batch_timeout_ms": 20,
  "fsync": "interval",
  "shards": [
    [
      {"id": 0, "addr": "127.0.0.1:7200", "metrics_addr": "127.0.0.1:7240"},
      {"id": 1, "addr": "127.0.0.1:7201", "metrics_addr": "127.0.0.1:7241"},
      {"id": 2, "addr": "127.0.0.1:7202", "metrics_addr": "127.0.0.1:7242"},
      {"id": 3, "addr": "127.0.0.1:7203", "metrics_addr": "127.0.0.1:7243"}
    ],
    [
      {"id": 4, "addr": "127.0.0.1:7210", "metrics_addr": "127.0.0.1:7250"},
      {"id": 5, "addr": "127.0.0.1:7211", "metrics_addr": "127.0.0.1:7251"},
      {"id": 6, "addr": "127.0.0.1:7212", "metrics_addr": "127.0.0.1:7252"},
      {"id": 7, "addr": "127.0.0.1:7213", "metrics_addr": "127.0.0.1:7253"}
    ]
  ],
  "reference": [
    {"id": 8, "addr": "127.0.0.1:7220", "metrics_addr": "127.0.0.1:7260"},
    {"id": 9, "addr": "127.0.0.1:7221", "metrics_addr": "127.0.0.1:7261"},
    {"id": 10, "addr": "127.0.0.1:7222", "metrics_addr": "127.0.0.1:7262"},
    {"id": 11, "addr": "127.0.0.1:7223", "metrics_addr": "127.0.0.1:7263"}
  ],
  "clients": [
    {"id": 12, "addr": "127.0.0.1:7230"}
  ]
}
EOF

echo "== building ahlnode + ahlctl"
build_tool ./cmd/ahlnode "$BIN/ahlnode"
build_tool ./cmd/ahlctl "$BIN/ahlctl"

echo "== starting 12 replicas (WAL on, fsync=interval) under $DATA"
for id in 0 1 2 3 4 5 6 7 8 9 10 11; do
  "$BIN/ahlnode" -topo "$TOPO" -id "$id" -data "$DATA" 2>"$BIN/node$id.log" &
  PIDS+=("$!")
done
sleep 1

echo "== driving $TXS transactions (30% cross-shard, window $OUTSTANDING)"
code=0
"$BIN/ahlctl" load -topo "$TOPO" -accounts 32 -txs "$TXS" -outstanding "$OUTSTANDING" \
  -cross 0.3 -timeout 300s 2>"$BIN/ctl.log" || code=$?
if [ "$code" -ne 0 ]; then
  echo "FAIL: live load run failed (exit $code)" >&2
  cat "$BIN/ctl.log" >&2
  exit "$code"
fi

# Consistency assertion through the streaming query layer: the load run
# seeded 32 accounts with 1,000,000 each and transfers only move money,
# so a height-consistent conservation sweep must account for exactly
# 32,000,000 — anything else means a cross-shard read anomaly (or lost
# money). Exit 4 is ahlctl's -expect mismatch code.
echo "== conservation query (expect total 32000000)"
code=0
"$BIN/ahlctl" query -topo "$TOPO" -expect 32000000 -timeout 60s \
  2>"$BIN/query.log" | tee "$BIN/query.out" || code=$?
if [ "$code" -ne 0 ]; then
  echo "FAIL: conservation query failed (exit $code; 4 = total mismatch)" >&2
  cat "$BIN/query.log" >&2
  exit "$code"
fi

# Flight-recorder capture: the cluster is still running, so pull every
# replica's /metrics, node 0's JSON snapshot + trace, and a short pprof
# CPU profile into the artifact dir, then assert the load actually
# overlapped consensus instances (nonzero pipeline-occupancy peak).
echo "== capturing observability artifacts into $OBS_DIR"
rm -rf "$OBS_DIR"
mkdir -p "$OBS_DIR"
occupancy_seen=0
for id in 0 1 2 3 4 5 6 7 8 9 10 11; do
  case "$id" in
    [0-3]) maddr="127.0.0.1:724$id" ;;
    [4-7]) maddr="127.0.0.1:725$((id - 4))" ;;
    *)     maddr="127.0.0.1:726$((id - 8))" ;;
  esac
  if ! curl -fsS "http://$maddr/metrics" >"$OBS_DIR/node$id.metrics.txt"; then
    echo "FAIL: /metrics unreachable on node $id ($maddr)" >&2
    exit 1
  fi
  peak="$(awk '$1 == "pbft_pipeline_occupancy_peak" {print $2}' "$OBS_DIR/node$id.metrics.txt")"
  if [ -n "$peak" ] && [ "$peak" -gt 0 ] 2>/dev/null; then
    occupancy_seen=1
  fi
  # The WAL a restart would replay: a durable root is saved at the first
  # stable checkpoint after the log rolls past the current root's segment,
  # so it stays under two default (4 MiB) segments.
  since="$(awk '$1 == "storage_wal_bytes_since_root" {print $2}' "$OBS_DIR/node$id.metrics.txt")"
  if [ -z "$since" ] || [ "$since" -ge $((8 << 20)) ]; then
    echo "FAIL: node $id storage_wal_bytes_since_root = '${since}', want a value below two WAL segments" >&2
    exit 1
  fi
done
curl -fsS "http://127.0.0.1:7240/snapshot" >"$OBS_DIR/node0.snapshot.json"
curl -fsS "http://127.0.0.1:7240/trace" >"$OBS_DIR/node0.trace.json"
curl -fsS "http://127.0.0.1:7240/debug/pprof/profile?seconds=1" >"$OBS_DIR/node0.cpu.pprof"
"$BIN/ahlctl" scrape -topo "$TOPO" | tee "$OBS_DIR/scrape.txt"
if ! grep -q '^  storage_wal_bytes_since_root' "$OBS_DIR/scrape.txt"; then
  echo "FAIL: ahlctl scrape did not report storage_wal_bytes_since_root" >&2
  exit 1
fi
if [ "$occupancy_seen" -ne 1 ]; then
  echo "FAIL: no replica reported pbft_pipeline_occupancy_peak > 0 under load" >&2
  exit 1
fi

echo "live smoke OK (observability artifacts in $OBS_DIR)"
