#!/usr/bin/env bash
# End-to-end failover gate for the distributed serving tier.
#
# Topology: one router over two shards — shard 0 with TWO replicas,
# shard 1 with one — plus a single-process serve as the byte-identity
# reference. All three workers serve ONE shared RIDX7 image built by
# `buildindex` and opened with `serve -worker -index ... -mmap`: no
# per-worker index build, the mapping is shared through the
# page cache, and the re-admission phase measures a realistic respawn
# (open the image, not rebuild the world). The gate has three parts:
#
#   1. Differential: router /search must be byte-identical (modulo the
#      timing field took_us) to single-process /search across
#      algorithms x k over real queries.
#   2. Chaos: kill -9 one shard-0 replica while loadgen drives traffic
#      with -fail-on-error; the run must finish with ZERO failed
#      requests (the surviving replica absorbs the failover).
#   3. Re-admission: restart the killed replica and require the
#      router's breaker to re-admit it (state closed + healthy in
#      /stats) within the probe/cooldown budget.
#   4. Tail (SIGSTOP): freeze a shard-0 replica mid-run — the worst
#      tail case: TCP accepts, nothing answers. Hedged requests must
#      keep the run at ZERO failures with p99 far under the 2s attempt
#      timeout, /stats must show hedges + hedge wins, and SIGCONT must
#      get the replica re-admitted.
#   5. Degraded (whole shard): freeze shard 1's ONLY replica — with
#      -partial the router must keep answering 200 with degraded:true
#      (body + X-Degraded header, never a 503), and recover to
#      byte-identical full-fidelity service after SIGCONT.
#
# Exit status is nonzero on any violation. Needs: go, curl, bash.
set -euo pipefail

WORLD="-seed 1 -topics 8 -sessions 3000 -candidates 200"
# Requests per load phase. A phase injects its fault one or two seconds
# in, so the load has to outlast that: the router answers about 1500 of
# these per second on two cores (600, the size this gate started with,
# finished before the fault since the shard frame went binary).
LOAD=8000
SINGLE=127.0.0.1:19100
W1=127.0.0.1:19101 # shard pool 0, replica a (the one we kill)
W2=127.0.0.1:19102 # shard pool 0, replica b
W3=127.0.0.1:19103 # shard pool 1
ROUTER=127.0.0.1:19200

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

echo "== building the shared mapped index image"
"$workdir/buildindex" -seed 1 -topics 8 -shards 2 \
  -o "$workdir/index.ridx7" 2>&1 | sed 's/^/   /'

start_worker() { # $1=addr ; echoes pid
  # No -shards: a worker serves the 2-shard partition the image records.
  "$workdir/serve" -worker -index "$workdir/index.ridx7" -mmap \
    -addr "$1" >>"$workdir/log.$1" 2>&1 &
  echo $!
}

echo "== starting 3 workers, 1 single-process reference, 1 router"
w1_pid=$(start_worker "$W1"); pids+=("$w1_pid")
pids+=("$(start_worker "$W2")")
w3_pid=$(start_worker "$W3"); pids+=("$w3_pid")
"$workdir/serve" $WORLD -shards 2 -addr "$SINGLE" >>"$workdir/log.single" 2>&1 &
pids+=($!)
# Tail tolerance on: fixed 150ms hedge trigger (quantile off so hedges
# fire ONLY when something is actually slow), a generous extra-attempt
# budget, and partial results for the whole-shard phase.
"$workdir/router" $WORLD -addr "$ROUTER" \
  -shard "http://$W1,http://$W2" -shard "http://$W3" \
  -fail-threshold 1 -cooldown 200ms -cooldown-max 2s -probe-interval 250ms \
  -hedge-after 150ms -hedge-quantile 0 -extra-ratio 0.5 -extra-burst 200 -partial \
  >>"$workdir/log.router" 2>&1 &
pids+=($!)

wait_ready() { # $1=host:port $2=name
  for _ in $(seq 1 240); do
    if curl -sf "http://$1/readyz" >/dev/null 2>&1; then
      echo "   $2 ready"
      return 0
    fi
    sleep 0.5
  done
  echo "FAIL: $2 never became ready" >&2
  tail -50 "$workdir"/log.* >&2 || true
  exit 1
}
wait_ready "$SINGLE" "single-process serve"
wait_ready "$ROUTER" "router"

echo "== differential: router vs single-process, algorithms x k"
mapfile -t queries < <(curl -sf "http://$SINGLE/queries" |
  sed 's/.*\[//; s/\].*//' | tr ',' '\n' | tr -d '"' | head -5)
[ "${#queries[@]}" -ge 3 ] || { echo "FAIL: could not fetch queries" >&2; exit 1; }
normalize() { sed 's/"took_us":[0-9]*/"took_us":0/'; }
checked=0
for q in "${queries[@]}"; do
  for alg in baseline optselect xquad iaselect mmr; do
    for k in 5 10; do
      a=$(curl -sf --get "http://$SINGLE/search" --data-urlencode "q=$q" --data "alg=$alg&k=$k" | normalize)
      b=$(curl -sf --get "http://$ROUTER/search" --data-urlencode "q=$q" --data "alg=$alg&k=$k" | normalize)
      if [ "$a" != "$b" ]; then
        echo "FAIL: diverged on q='$q' alg=$alg k=$k" >&2
        echo "single: $a" >&2
        echo "router: $b" >&2
        exit 1
      fi
      checked=$((checked + 1))
    done
  done
done
echo "   $checked request pairs byte-identical"

echo "== chaos: kill -9 a shard-0 replica under load, require zero failed requests"
"$workdir/loadgen" -addr "http://$ROUTER" -n "$LOAD" -c 8 -fail-on-error >"$workdir/loadgen.out" 2>&1 &
lg_pid=$!
sleep 2
kill -9 "$w1_pid"
echo "   replica $W1 killed mid-run"
if ! wait "$lg_pid"; then
  echo "FAIL: loadgen saw failed requests during failover" >&2
  cat "$workdir/loadgen.out" >&2
  exit 1
fi
grep -E 'requests|errors' "$workdir/loadgen.out" | sed 's/^/   /'

echo "== re-admission: restart the replica, breaker must close again"
w1_pid=$(start_worker "$W1"); pids+=("$w1_pid")
readmitted=""
for _ in $(seq 1 240); do
  if curl -sf "http://$ROUTER/stats" |
    grep -q "\"url\":\"http://$W1\",\"weight\":1,\"state\":\"closed\",\"healthy\":true"; then
    readmitted=yes
    break
  fi
  sleep 0.5
done
if [ -z "$readmitted" ]; then
  echo "FAIL: restarted replica was not re-admitted (router /stats):" >&2
  curl -s "http://$ROUTER/stats" >&2 || true
  exit 1
fi
echo "   replica re-admitted (breaker closed, healthy)"

echo "== post-recovery differential spot check"
q=${queries[0]}
a=$(curl -sf --get "http://$SINGLE/search" --data-urlencode "q=$q" --data "alg=optselect&k=10" | normalize)
b=$(curl -sf --get "http://$ROUTER/search" --data-urlencode "q=$q" --data "alg=optselect&k=10" | normalize)
[ "$a" = "$b" ] || { echo "FAIL: diverged after recovery" >&2; exit 1; }

tail_stat() { # $1=counter name in the /stats tail block; echoes its value
  curl -sf "http://$ROUTER/stats" | grep -o "\"$1\":[0-9]*" | head -1 | cut -d: -f2
}
wait_readmitted() { # $1=host:port $2=name
  local ok=""
  for _ in $(seq 1 240); do
    if curl -sf "http://$ROUTER/stats" |
      grep -q "\"url\":\"http://$1\",\"weight\":1,\"state\":\"closed\",\"healthy\":true"; then
      ok=yes
      break
    fi
    sleep 0.5
  done
  if [ -z "$ok" ]; then
    echo "FAIL: $2 was not re-admitted after SIGCONT (router /stats):" >&2
    curl -s "http://$ROUTER/stats" >&2 || true
    exit 1
  fi
  echo "   $2 re-admitted (breaker closed, healthy)"
}

echo "== tail: SIGSTOP a shard-0 replica under load; hedging must hold p99 with zero failures"
hedges_before=$(tail_stat hedges)
"$workdir/loadgen" -addr "http://$ROUTER" -n "$LOAD" -c 8 -fail-on-error \
  -json "$workdir/hedge.json" -name Failover/hedged >"$workdir/loadgen.hedge.out" 2>&1 &
lg_pid=$!
sleep 1
kill -STOP "$w1_pid"
echo "   replica $W1 frozen (SIGSTOP) mid-run"
if ! wait "$lg_pid"; then
  echo "FAIL: loadgen saw failed requests with a frozen replica (hedging should rescue them)" >&2
  cat "$workdir/loadgen.hedge.out" >&2
  exit 1
fi
grep -E 'requests|errors|hedged' "$workdir/loadgen.hedge.out" | sed 's/^/   /'
p99=$(grep -o '"p99_ms": *[0-9.]*' "$workdir/hedge.json" | grep -o '[0-9.]*$')
# A hedge-less router would strand every frozen-replica request until the
# 2000ms attempt timeout; hedging at 150ms must keep p99 well under that.
if ! awk -v p="$p99" 'BEGIN { exit !(p < 1500) }'; then
  echo "FAIL: p99 ${p99}ms with a frozen replica (want < 1500ms via hedging)" >&2
  exit 1
fi
echo "   p99 ${p99}ms under the frozen replica (attempt timeout 2000ms)"
hedges=$(tail_stat hedges)
hedge_wins=$(tail_stat hedge_wins)
if [ "$hedges" -le "${hedges_before:-0}" ] || [ "$hedge_wins" -eq 0 ]; then
  echo "FAIL: /stats tail shows hedges=$hedges (before: $hedges_before) hedge_wins=$hedge_wins" >&2
  exit 1
fi
echo "   /stats tail: $hedges hedges, $hedge_wins wins"

kill -CONT "$w1_pid"
echo "== re-admission after SIGCONT"
wait_readmitted "$W1" "thawed shard-0 replica"

echo "== degraded: freeze shard 1's only replica; -partial must answer 200 degraded, never 503"
kill -STOP "$w3_pid"
for i in 1 2 3; do
  code=$(curl -s -o "$workdir/deg.body" -D "$workdir/deg.hdr" -w '%{http_code}' \
    -H "X-Search-Budget: 1500ms" --get "http://$ROUTER/search" \
    --data-urlencode "q=$q" --data "alg=optselect&k=10")
  if [ "$code" != 200 ]; then
    echo "FAIL: request $i with shard 1 frozen: HTTP $code (want 200 degraded, never 503)" >&2
    cat "$workdir/deg.body" >&2
    exit 1
  fi
  grep -q '"degraded":true' "$workdir/deg.body" ||
    { echo "FAIL: request $i body lacks degraded:true" >&2; cat "$workdir/deg.body" >&2; exit 1; }
  grep -qi '^X-Degraded: *true' "$workdir/deg.hdr" ||
    { echo "FAIL: request $i missing X-Degraded header" >&2; cat "$workdir/deg.hdr" >&2; exit 1; }
done
degraded=$(tail_stat degraded)
dropped=$(tail_stat shards_dropped)
if [ "$degraded" -eq 0 ] || [ "$dropped" -eq 0 ]; then
  echo "FAIL: /stats tail shows degraded=$degraded shards_dropped=$dropped" >&2
  exit 1
fi
echo "   3/3 degraded 200s (body + header), /stats tail: degraded=$degraded shards_dropped=$dropped"

kill -CONT "$w3_pid"
echo "== recovery to full fidelity after SIGCONT"
wait_readmitted "$W3" "thawed shard-1 replica"
a=$(curl -sf --get "http://$SINGLE/search" --data-urlencode "q=$q" --data "alg=optselect&k=10" | normalize)
b=$(curl -sf --get "http://$ROUTER/search" --data-urlencode "q=$q" --data "alg=optselect&k=10" | normalize)
[ "$a" = "$b" ] || { echo "FAIL: diverged after degraded recovery" >&2; exit 1; }
echo "$b" | grep -q '"degraded":true' && { echo "FAIL: still degraded after recovery" >&2; exit 1; }

echo "PASS: differential + failover + re-admission + hedged-tail + degraded all green"
