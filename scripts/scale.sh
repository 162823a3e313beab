#!/usr/bin/env bash
# Replica-scaling curve for the distributed serving tier over ONE shared
# mapped index image.
#
# One RIDX7 image is built once with `buildindex`; then for
# each replica count N in 1, 2, 4 the script starts N shard workers that
# all mmap that same file (`serve -worker -index ... -mmap` — instant
# startup, page cache shared between the processes), puts a router in
# front of them as one replica pool, and drives a fixed Zipf workload
# through loadgen. Client-observed QPS and latency percentiles for each
# N are folded into the committed benchmark snapshot (BENCH_<date>.json
# by default, override with $1) as QPSScale/workers=N points via
# `bench -merge`, so the scaling curve lives next to the go-test
# benchmarks and future sessions can diff it.
#
# Every run uses -fail-on-error: a point only lands if zero requests
# failed. Needs: go, curl, bash.
set -euo pipefail

cd "$(dirname "$0")/.."

OUT=${1:-BENCH_$(date -u +%F).json}
WORLD="-seed 1 -topics 8 -sessions 3000 -candidates 200"
N_REQ=${N_REQ:-1500}
CONC=${CONC:-16}
ROUTER=127.0.0.1:19300
PORTS=(19301 19302 19303 19304)

workdir=$(mktemp -d)
pids=()
cleanup() {
  kill "${pids[@]}" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building binaries"
go build -o "$workdir/serve" ./cmd/serve
go build -o "$workdir/router" ./cmd/router
go build -o "$workdir/loadgen" ./cmd/loadgen
go build -o "$workdir/buildindex" ./cmd/buildindex
go build -o "$workdir/bench" ./cmd/bench

echo "== building the shared mapped index image"
"$workdir/buildindex" -seed 1 -topics 8 -shards 1 \
  -o "$workdir/index.ridx7" 2>&1 | sed 's/^/   /'

wait_ready() { # $1=host:port $2=name
  for _ in $(seq 1 240); do
    if curl -sf "http://$1/readyz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.5
  done
  echo "FAIL: $2 never became ready" >&2
  tail -50 "$workdir"/log.* >&2 || true
  exit 1
}

points="$workdir/points.jsonl"
: >"$points"

run_scale() { # $1 = replica count
  local n=$1 pool="" addr
  local run_pids=()
  echo "== $n replica(s) over the mapped image"
  for i in $(seq 0 $((n - 1))); do
    addr=127.0.0.1:${PORTS[$i]}
    "$workdir/serve" -worker -shards 1 -index "$workdir/index.ridx7" -mmap \
      -addr "$addr" >>"$workdir/log.worker.$addr" 2>&1 &
    run_pids+=($!)
    pool+=${pool:+,}http://$addr
  done
  "$workdir/router" $WORLD -addr "$ROUTER" -shard "$pool" \
    >>"$workdir/log.router.$n" 2>&1 &
  run_pids+=($!)
  pids+=("${run_pids[@]}")
  wait_ready "$ROUTER" "router ($n replicas)"
  "$workdir/loadgen" -addr "http://$ROUTER" -n "$N_REQ" -c "$CONC" -fail-on-error \
    -json "$workdir/point.$n.json" -name "QPSScale/workers=$n" \
    >"$workdir/loadgen.$n.out" 2>&1 ||
    { echo "FAIL: loadgen at $n replicas" >&2; cat "$workdir/loadgen.$n.out" >&2; exit 1; }
  grep -E 'throughput|latency p99' "$workdir/loadgen.$n.out" | sed 's/^/   /'
  cat "$workdir/point.$n.json" >>"$points"
  kill "${run_pids[@]}" 2>/dev/null || true
  wait "${run_pids[@]}" 2>/dev/null || true
}

for n in 1 2 4; do
  run_scale "$n"
done

echo "== merging points into $OUT"
"$workdir/bench" -merge "$points" -out "$OUT"

echo "== scaling curve (client-observed)"
for n in 1 2 4; do
  qps=$(grep -oE '"qps": [0-9.]+' "$workdir/point.$n.json" | awk '{printf "%.0f", $2}')
  p99=$(grep -oE '"p99_ms": [0-9.]+' "$workdir/point.$n.json" | awk '{print $2}')
  printf '   workers=%d  qps=%s  p99=%sms\n' "$n" "$qps" "$p99"
done
echo "PASS: scaling curve recorded"
