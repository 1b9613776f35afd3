#!/bin/sh
# End-to-end smoke of `nfc serve` against the real binary: boot on an
# ephemeral port, submit jobs over HTTP, compare the served lint verdict
# byte-for-byte with the CLI's, cancel a running cover, exercise the 429
# backpressure path, check /metrics exposes the queue and latency series,
# and finish with a loadgen storm (exit 2 there means a dropped request).
set -eu

NFC=${NFC:-_build/default/bin/nfc.exe}
out=$(mktemp -d)
pid=""
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  rm -rf "$out"
}
trap cleanup EXIT

"$NFC" serve --port 0 --jobs 2 --queue-depth 2 >"$out/serve.log" 2>&1 &
pid=$!

# Wait for the bound-port announcement (port 0 = ephemeral).
port=""
i=0
while [ $i -lt 100 ]; do
  port=$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "$out/serve.log" | head -1)
  [ -n "$port" ] && break
  sleep 0.1
  i=$((i + 1))
done
if [ -z "$port" ]; then
  echo "serve-smoke: server did not come up"
  cat "$out/serve.log"
  exit 1
fi
base="http://127.0.0.1:$port"

curl -fsS "$base/healthz" >/dev/null

# Poll job $1 to a terminal state (30 s at most), leaving it in $state.
poll_state() {
  state=""
  i=0
  while [ $i -lt 300 ]; do
    state=$(curl -fsS "$base/v1/jobs/$1" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
    case "$state" in done | failed | cancelled) break ;; esac
    sleep 0.1
    i=$((i + 1))
  done
}

# Submit a lint job and poll it to a terminal state.
id=$(curl -fsS -X POST "$base/v1/lint" \
  -d '{"protocol":"stop-and-wait","nodes":20000}' |
  sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
if [ -z "$id" ]; then
  echo "serve-smoke: submit returned no job id"
  exit 1
fi
poll_state "$id"
if [ "$state" != done ]; then
  echo "serve-smoke: lint job ended '$state'"
  exit 1
fi

# Byte-identity: the served result document is exactly the CLI's JSONL line.
curl -fsS "$base/v1/jobs/$id/result" >"$out/served.json"
"$NFC" lint -p stop-and-wait --nodes 20000 --json >"$out/cli.json" || true
if ! cmp -s "$out/served.json" "$out/cli.json"; then
  echo "serve-smoke: served lint verdict differs from CLI output"
  diff "$out/served.json" "$out/cli.json" || true
  exit 1
fi

# User-submitted protocol: POST the PDL spec source, lint through the
# returned content-digest handle, and compare byte-for-byte with the CLI
# compiling the same file via --spec.
handle=$(curl -fsS -X POST "$base/v1/protocols" \
  --data-binary @examples/specs/stop_and_wait.nfc |
  sed -n 's/.*"handle":"\([^"]*\)".*/\1/p')
if [ -z "$handle" ]; then
  echo "serve-smoke: protocol submission returned no handle"
  exit 1
fi
pid_id=$(curl -fsS -X POST "$base/v1/lint" \
  -d "{\"protocol\":\"$handle\",\"nodes\":20000}" |
  sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
poll_state "$pid_id"
if [ "$state" != done ]; then
  echo "serve-smoke: pdl lint job ended '$state'"
  exit 1
fi
curl -fsS "$base/v1/jobs/$pid_id/result" >"$out/served-pdl.json"
"$NFC" lint --spec examples/specs/stop_and_wait.nfc --nodes 20000 --json >"$out/cli-pdl.json" || true
if ! cmp -s "$out/served-pdl.json" "$out/cli-pdl.json"; then
  echo "serve-smoke: served pdl lint verdict differs from CLI --spec output"
  diff "$out/served-pdl.json" "$out/cli-pdl.json" || true
  exit 1
fi

# Cancellation reaches the cover fixpoint: the flood cover runs to its
# 200k-node cap, so a DELETE once it is inside the analysis (its memo
# lookup counted) must end it `cancelled` having memoized nothing, and
# the same request again must miss the memo rather than hit it.
cache_count() {
  n=$(curl -fsS "$base/metrics" |
    sed -n "s/^nfc_cache_requests_total{result=\"$1\"} \([0-9]*\).*/\1/p")
  echo "${n:-0}"
}
cancel_running_cover() {
  misses=$(cache_count miss)
  hits=$(cache_count hit)
  cid=$(curl -fsS -X POST "$base/v1/cover" -d '{"protocol":"flood"}' |
    sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
  i=0
  while [ $i -lt 300 ] && [ "$(cache_count miss)" -le "$misses" ] &&
    [ "$(cache_count hit)" -le "$hits" ]; do
    sleep 0.05
    i=$((i + 1))
  done
  if [ "$(cache_count hit)" -ne "$hits" ]; then
    echo "serve-smoke: flood cover hit the memo after an earlier cancellation"
    exit 1
  fi
  curl -fsS -X DELETE "$base/v1/jobs/$cid" >/dev/null
  poll_state "$cid"
  if [ "$state" != cancelled ]; then
    echo "serve-smoke: cancelled flood cover ended '$state'"
    exit 1
  fi
}
cancel_running_cover
cancel_running_cover

# Backpressure: flood the depth-2 queue with slow fuzz jobs, all 12 at
# once so the outcome does not hang on how fast the workers drain it;
# expect at least one 429 and nothing but 202/429 at admission.
i=1
curls=""
while [ $i -le 12 ]; do
  curl -s -o /dev/null -w '%{http_code}\n' -X POST "$base/v1/fuzz" \
    -d "{\"protocol\":\"altbit\",\"iterations\":20000,\"seed\":$i}" >"$out/code.$i" &
  curls="$curls $!"
  i=$((i + 1))
done
# A failed curl still writes its code (000), which the checks below catch.
wait $curls || true
cat "$out"/code.* >"$out/codes"
if ! grep -q '^429$' "$out/codes"; then
  echo "serve-smoke: queue overflow never answered 429"
  exit 1
fi
if grep -Evq '^(202|429)$' "$out/codes"; then
  echo "serve-smoke: unexpected submit status:"
  cat "$out/codes"
  exit 1
fi

# Metrics must expose the queue gauges, rejection counter and latency
# histogram.
curl -fsS "$base/metrics" >"$out/metrics"
for series in nfc_queue_depth nfc_queue_capacity nfc_jobs_rejected_total \
  nfc_http_request_seconds_bucket nfc_job_run_seconds \
  nfc_protocol_submissions_total nfc_protocols_resident; do
  if ! grep -q "$series" "$out/metrics"; then
    echo "serve-smoke: /metrics missing $series"
    exit 1
  fi
done

# Loadgen against the live server: exit 2 would mean a dropped request
# (neither terminal nor 429) — the acceptance contract.
"$NFC" loadgen --port "$port" -n 100 --concurrency 100 \
  --body '{"protocol":"stop-and-wait","nodes":3000}' >"$out/loadgen.txt"
cat "$out/loadgen.txt"

kill "$pid"
wait "$pid" 2>/dev/null || true
pid=""
echo "serve-smoke: ok (byte-identical verdicts incl. submitted PDL spec, running cover cancelled, 429 path, metrics, loadgen clean)"
