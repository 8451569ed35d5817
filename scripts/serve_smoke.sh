#!/usr/bin/env bash
# Serve-mode smoke: a real daemon process, two tenants with different
# budgets and priorities, validated per-group manifests, a SIGTERM and a
# SIGKILL mid-run, and restarts that recover each interrupted request to
# the byte-identical outcome a fresh daemon produces. Also exercises the
# CLI campaign --checkpoint/--resume identity, from a whole and from a
# torn checkpoint log.
#
# Also probes the daemon's HTTP introspection plane: /healthz and
# /metrics must answer on the live daemon, the exposition must carry the
# stable ascdg_* counter names with both tenants' sims and both
# requests' regressions counted, and
# `ascdg top --once` must render a frame from /status + /rates.
#
# Usage: scripts/serve_smoke.sh [path-to-ascdg-binary]
set -euo pipefail

ASCDG=${1:-target/release/ascdg}
WORK=$(mktemp -d)
trap 'pkill -P $$ 2>/dev/null || true; rm -rf "$WORK"' EXIT

wait_for_file() {
  local path=$1 deadline=$((SECONDS + ${2:-120}))
  until [ -f "$path" ]; do
    if [ "$SECONDS" -ge "$deadline" ]; then
      echo "timed out waiting for $path" >&2
      return 1
    fi
    sleep 0.2
  done
}

echo "== daemon up, two tenants with different budgets and priorities =="
"$ASCDG" serve --state-dir "$WORK/stateA" --threads 4 &
DAEMON=$!
wait_for_file "$WORK/stateA/serve.addr" 30

"$ASCDG" submit --unit io --profile quick --scale 1.0 --seed 2021 \
  --weight 3 --class batch --state-dir "$WORK/stateA" \
  --json "$WORK/sub1.json" 2>"$WORK/sub1.log" &
SUB1=$!
"$ASCDG" submit --unit io --profile quick --scale 0.5 --seed 7 \
  --weight 1 --class interactive --state-dir "$WORK/stateA" \
  --json "$WORK/sub2.json" 2>"$WORK/sub2.log"
wait "$SUB1"

for log in sub1 sub2; do
  grep -q "stage(s) done" "$WORK/$log.log" \
    || { echo "$log streamed no progress"; cat "$WORK/$log.log"; exit 1; }
done
echo "both tenants streamed progress and retired"

echo "== per-group manifests validate =="
ls "$WORK"/stateA/req*.group*.manifest.json
for m in "$WORK"/stateA/req*.group*.manifest.json; do
  "$ASCDG" trace --manifest "$m" >/dev/null
done

echo "== http introspection plane answers on the live daemon =="
wait_for_file "$WORK/stateA/serve.http.addr" 30
HTTP_ADDR=$(cat "$WORK/stateA/serve.http.addr")

# curl when available, bash /dev/tcp otherwise (prints the body only).
http_get() {
  if command -v curl >/dev/null 2>&1; then
    curl -sf "http://$HTTP_ADDR$1"
  else
    exec 3<>"/dev/tcp/${HTTP_ADDR%:*}/${HTTP_ADDR##*:}"
    printf 'GET %s HTTP/1.0\r\nConnection: close\r\n\r\n' "$1" >&3
    sed '1,/^\r\{0,1\}$/d' <&3
    exec 3<&- 3>&-
  fi
}

http_get /healthz | grep -q '^ok' || { echo "/healthz did not answer ok"; exit 1; }
http_get /metrics >"$WORK/metrics.txt"
grep -q '^ascdg_serve_requests_total 2$' "$WORK/metrics.txt" \
  || { echo "/metrics missing the request counter"; cat "$WORK/metrics.txt"; exit 1; }
grep -q '^# TYPE ascdg_up gauge$' "$WORK/metrics.txt" \
  || { echo "/metrics is not Prometheus text exposition"; exit 1; }
# serve's sims/s series: each tenant class's counter moved.
for class in batch interactive; do
  grep -Eq "^ascdg_serve_tenant_sims_${class} [1-9][0-9]*$" "$WORK/metrics.txt" \
    || { echo "/metrics has no positive ${class} tenant sims"; cat "$WORK/metrics.txt"; exit 1; }
done
# Each request's regression is traced on the engine that plans it:
# io's 17 stock templates merged once per request, and 1020 + 510 sims.
grep -q '^ascdg_batch_sims_recorded 1530$' "$WORK/metrics.txt" \
  || { echo "/metrics does not count both regressions' sims"; cat "$WORK/metrics.txt"; exit 1; }
grep -q '^ascdg_batch_repo_merges 34$' "$WORK/metrics.txt" \
  || { echo "/metrics does not count both regressions' merges"; cat "$WORK/metrics.txt"; exit 1; }
# The resolve-cache counters were removed with the cache.
if grep -q '^ascdg_batch_resolve_' "$WORK/metrics.txt"; then
  echo "/metrics still exports the removed resolve-cache counters"; exit 1
fi
"$ASCDG" top --state-dir "$WORK/stateA" --once >"$WORK/top.txt"
grep -q '^units:' "$WORK/top.txt" && grep -q 'io_unit' "$WORK/top.txt" \
  || { echo "ascdg top rendered no unit table"; cat "$WORK/top.txt"; exit 1; }
echo "/healthz, /metrics and ascdg top OK"

echo "== SIGTERM mid-run, restart recovers to identical bytes =="
"$ASCDG" submit --unit io --profile quick --scale 4.0 --seed 99 \
  --state-dir "$WORK/stateA" 2>/dev/null >/dev/null &
SUB3=$!
wait_for_file "$WORK/stateA/req2.progress.json" 60
sleep 1 # let the request past its first stages
kill -TERM "$DAEMON"
wait "$DAEMON" 2>/dev/null || true
wait "$SUB3" 2>/dev/null || true
if [ -f "$WORK/stateA/req2.outcome.json" ]; then
  # The request outran the signal; drop its outcome so the restart still
  # has an orphan to recover.
  rm "$WORK/stateA/req2.outcome.json"
fi

"$ASCDG" serve --state-dir "$WORK/stateA" --threads 4 &
DAEMON=$!
wait_for_file "$WORK/stateA/req2.outcome.json" 180

echo "== SIGKILL mid-run, restart recovers the checkpoint log to identical bytes =="
# A bigger budget (about a second of work) so the kill lands mid-request.
"$ASCDG" submit --unit io --profile quick --scale 12.0 --seed 123 \
  --state-dir "$WORK/stateA" 2>/dev/null >/dev/null &
SUB4=$!
wait_for_file "$WORK/stateA/req3.progress.json" 60
# Kill as soon as the log holds its header and a first stage line.
until [ "$(wc -l <"$WORK/stateA/req3.progress.json")" -ge 2 ]; do sleep 0.02; done
kill -KILL "$DAEMON"
wait "$DAEMON" 2>/dev/null || true
wait "$SUB4" 2>/dev/null || true
if [ -f "$WORK/stateA/req3.outcome.json" ]; then
  echo "the request outran SIGKILL; recovering it from its complete log"
  rm "$WORK/stateA/req3.outcome.json"
fi
echo "killed with $(wc -l <"$WORK/stateA/req3.progress.json") checkpoint line(s) on disk"

"$ASCDG" serve --state-dir "$WORK/stateA" --threads 4 &
wait_for_file "$WORK/stateA/req3.outcome.json" 180
"$ASCDG" status --state-dir "$WORK/stateA" --shutdown
wait

# Reference: the same requests on a fresh daemon, different worker count.
"$ASCDG" serve --state-dir "$WORK/stateB" --threads 2 &
wait_for_file "$WORK/stateB/serve.addr" 30
for run in "4.0 99" "12.0 123"; do
  set -- $run
  "$ASCDG" submit --unit io --profile quick --scale "$1" --seed "$2" \
    --state-dir "$WORK/stateB" 2>/dev/null >/dev/null
done
"$ASCDG" status --state-dir "$WORK/stateB" --shutdown
wait
cmp "$WORK/stateA/req2.outcome.json" "$WORK/stateB/req0.outcome.json"
echo "SIGTERM-recovered outcome is byte-identical to the fresh daemon's"
cmp "$WORK/stateA/req3.outcome.json" "$WORK/stateB/req1.outcome.json"
echo "SIGKILL-recovered outcome is byte-identical to the fresh daemon's"

echo "== CLI campaign --checkpoint / --resume identity =="
"$ASCDG" campaign --unit io --scale 0.02 --seed 11 --threads 4 \
  --json "$WORK/ref.json" --checkpoint "$WORK/ck.json" >/dev/null
# A log whose last append was torn: cut inside its final line.
head -c -64 "$WORK/ck.json" >"$WORK/torn.json"
"$ASCDG" campaign --resume "$WORK/ck.json" --threads 2 \
  --json "$WORK/resumed.json" >/dev/null
cmp "$WORK/ref.json" "$WORK/resumed.json"
echo "resumed campaign is byte-identical to the uninterrupted run"
"$ASCDG" campaign --resume "$WORK/torn.json" --threads 2 \
  --json "$WORK/torn-resumed.json" >/dev/null
cmp "$WORK/ref.json" "$WORK/torn-resumed.json"
echo "campaign resumed from a torn log is byte-identical too"

echo "serve smoke OK"
