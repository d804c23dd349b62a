#!/bin/sh
# serve_smoke.sh — end-to-end smoke test of `costsense serve`.
#
# Builds the binary under the race detector, starts the server, submits
# the same fig2-style spec twice, waits for both jobs, and asserts the
# service's core contracts:
#
#   1. both jobs complete ("done");
#   2. the second job's substrate came from the cache
#      (substrate_cached: true in its STATUS — never in the result);
#   3. the two result payloads are byte-identical (cache hit vs miss
#      must not change a single byte);
#   4. the progress stream terminates with the job's terminal status;
#   5. the /metrics exposition reports the finished jobs, populated
#      latency histograms and the cache counters;
#   6. under -results-mb 1 the second ~0.9 MB result pushes the first
#      out of the job table: it answers 410 Gone, says result_evicted
#      in its status and counts on /metrics, while the newest is
#      served — and (3) is the remedy the 410 names, a resubmission;
#   7. two different specs submitted back to back — so they run side by
#      side on the shared trial workers — each return the bytes the same
#      spec returned when it had the server to itself;
#   8. a spec overflowing the queue is bounced with 429 + Retry-After;
#   9. SIGTERM drains and exits 0.
#
# Runs locally and in CI's serve-smoke job:
#
#   ./scripts/serve_smoke.sh
set -eu

cd "$(dirname "$0")/.."

ADDR="${SERVE_ADDR:-localhost:18321}"
BASE="http://$ADDR"
TMP="$(mktemp -d -t serve_smoke.XXXXXX)"
SERVER_PID=""
cleanup() {
	[ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
	echo "serve_smoke: FAIL: $*" >&2
	[ -f "$TMP/server.log" ] && sed 's/^/  server: /' "$TMP/server.log" >&2
	exit 1
}

echo "== build (race)"
go build -race -o "$TMP/costsense" ./cmd/costsense

echo "== start server"
"$TMP/costsense" serve -addr "$ADDR" -queue 2 -results-mb 1 -drain 60s >"$TMP/server.log" 2>&1 &
SERVER_PID=$!

# Wait for the listener.
i=0
until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && fail "server did not become healthy"
	kill -0 "$SERVER_PID" 2>/dev/null || fail "server exited early"
	sleep 0.2
done

SPEC='{
  "experiment": "conhybrid",
  "graph": {"family": "random", "n": 60, "m": 180,
            "weights": {"kind": "uniform", "max": 32, "seed": 7}, "seed": 7},
  "delay": "max",
  "trials": 6,
  "seed": 1
}'

submit() {
	curl -sf -X POST -H 'Content-Type: application/json' -d "$SPEC" "$BASE/api/v1/jobs" |
		sed -n 's/.*"id": "\(job-[0-9]*\)".*/\1/p'
}

wait_done() {
	# $1 = job id; waits for a terminal state and asserts "done".
	j=0
	while :; do
		state="$(curl -sf "$BASE/api/v1/jobs/$1" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p')"
		case "$state" in
		done) return 0 ;;
		failed) fail "job $1 failed: $(curl -sf "$BASE/api/v1/jobs/$1")" ;;
		esac
		j=$((j + 1))
		[ "$j" -gt 300 ] && fail "job $1 did not finish (state: $state)"
		sleep 0.2
	done
}

echo "== submit job twice (cache miss, then hit)"
ID1="$(submit)"
[ -n "$ID1" ] || fail "first submission returned no job id"
wait_done "$ID1"
# Fetched while it is the newest result: the 1 MiB window always keeps that one.
curl -sf "$BASE/api/v1/jobs/$ID1/result" >"$TMP/result1.json" || fail "first result not served"
ID2="$(submit)"
[ -n "$ID2" ] || fail "second submission returned no job id"
wait_done "$ID2"

echo "== assert cache visibility in status only"
curl -sf "$BASE/api/v1/jobs/$ID1" | grep -q '"substrate_cached": false' ||
	fail "first job should report substrate_cached: false"
curl -sf "$BASE/api/v1/jobs/$ID2" | grep -q '"substrate_cached": true' ||
	fail "second job should report substrate_cached: true"
HITS="$(curl -sf "$BASE/api/v1/cache" | sed -n 's/.*"hits": \([0-9]*\).*/\1/p')"
[ "${HITS:-0}" -ge 1 ] || fail "cache reports no hits"

echo "== assert byte-identical results"
curl -sf "$BASE/api/v1/jobs/$ID2/result" >"$TMP/result2.json" || fail "second result not served"
cmp "$TMP/result1.json" "$TMP/result2.json" ||
	fail "results differ between cache miss and cache hit"
grep -q substrate_cached "$TMP/result1.json" &&
	fail "cache-hit flag leaked into the result payload"
grep -q '"trials": 6' "$TMP/result1.json" || fail "result does not echo the spec"

echo "== retention: the second result pushed the first out of the 1 MiB window"
[ "$(($(wc -c <"$TMP/result1.json") + $(wc -c <"$TMP/result2.json")))" -gt 1048576 ] ||
	fail "two results fit in 1 MiB; the eviction checks below would prove nothing"
CODE="$(curl -s -o "$TMP/410.json" -w '%{http_code}' "$BASE/api/v1/jobs/$ID1/result")"
[ "$CODE" = "410" ] || fail "expected 410 for a result pushed out of the window, got $CODE"
grep -q resubmit "$TMP/410.json" || fail "410 body does not name the remedy: $(cat "$TMP/410.json")"
curl -sf "$BASE/api/v1/jobs/$ID1" | grep -q '"result_evicted": true' ||
	fail "evicted job's status lacks result_evicted"
curl -sf "$BASE/api/v1/jobs/$ID2" | grep -q result_evicted &&
	fail "the newest job reports result_evicted"
curl -sf "$BASE/metrics" >"$TMP/metrics.txt"
[ "$(sed -n 's/^costsense_results_evicted_total //p' "$TMP/metrics.txt")" = "1" ] ||
	fail "/metrics does not count exactly one evicted result"
[ "$(sed -n 's/^costsense_results_retained_bytes //p' "$TMP/metrics.txt")" = "$(wc -c <"$TMP/result2.json" | tr -d ' ')" ] ||
	fail "/metrics does not retain exactly the newest result"

echo "== stream a third job"
ID3="$(submit)"
curl -sf --max-time 60 "$BASE/api/v1/jobs/$ID3/stream" >"$TMP/stream.ndjson"
tail -n 1 "$TMP/stream.ndjson" | grep -q '"state":"done"' ||
	fail "stream did not end with a terminal done status: $(tail -n 1 "$TMP/stream.ndjson")"

echo "== scrape /metrics"
curl -sf "$BASE/metrics" >"$TMP/metrics.txt"
metric() {
	# $1 = exact series name (labels included); prints its value. The
	# names contain no BRE metacharacters, so they embed verbatim.
	sed -n "s/^$1 //p" "$TMP/metrics.txt"
}
DONE_JOBS="$(metric 'costsense_jobs{state="done"}')"
[ "${DONE_JOBS:-0}" -ge 3 ] || fail "/metrics reports $DONE_JOBS done jobs, want >= 3"
SUBMITTED="$(metric costsense_jobs_submitted_total)"
[ "${SUBMITTED:-0}" -ge 3 ] || fail "/metrics reports $SUBMITTED submissions, want >= 3"
DUR_COUNT="$(metric costsense_job_duration_seconds_count)"
[ "${DUR_COUNT:-0}" -ge 3 ] || fail "duration histogram counts $DUR_COUNT jobs, want >= 3"
grep -q '^costsense_job_duration_seconds_bucket{le="+Inf"} ' "$TMP/metrics.txt" ||
	fail "duration histogram lacks the +Inf bucket"
MISSES="$(metric costsense_cache_misses_total)"
[ "${MISSES:-0}" -ge 1 ] || fail "/metrics reports no cache misses after a cold job"
HITS_M="$(metric costsense_cache_hits_total)"
[ "${HITS_M:-0}" -ge 1 ] || fail "/metrics reports no cache hits after a warm job"
grep -q '^# TYPE costsense_job_queue_wait_seconds histogram$' "$TMP/metrics.txt" ||
	fail "queue-wait histogram metadata missing"

echo "== concurrent jobs: side by side equals solo"
# Small results, so all four fit the 1 MiB window at once.
SPEC_A='{"experiment": "ghs", "graph": {"family": "random", "n": 48, "m": 140,
  "weights": {"kind": "uniform", "max": 16, "seed": 3}, "seed": 3}, "delay": "uniform", "trials": 8, "seed": 5}'
SPEC_B='{"experiment": "dfs", "graph": {"family": "grid", "rows": 6, "cols": 6}, "trials": 8, "seed": 9,
  "faults": {"drop": 0.05, "dup": 0.02, "downs": 1}}'
submit_spec() {
	curl -sf -X POST -H 'Content-Type: application/json' -d "$1" "$BASE/api/v1/jobs" |
		sed -n 's/.*"id": "\(job-[0-9]*\)".*/\1/p'
}
for s in A B; do
	eval "spec=\$SPEC_$s"
	id="$(submit_spec "$spec")"
	[ -n "$id" ] || fail "solo submission of spec $s returned no job id"
	wait_done "$id"
	curl -sf "$BASE/api/v1/jobs/$id/result" >"$TMP/solo_$s.json" || fail "solo result of spec $s not served"
done
IDA="$(submit_spec "$SPEC_A")"
IDB="$(submit_spec "$SPEC_B")"
[ -n "$IDA" ] && [ -n "$IDB" ] || fail "back-to-back submissions returned no job ids"
wait_done "$IDA"
wait_done "$IDB"
curl -sf "$BASE/api/v1/jobs/$IDA/result" | cmp - "$TMP/solo_A.json" ||
	fail "spec A run beside spec B differs from spec A run alone"
curl -sf "$BASE/api/v1/jobs/$IDB/result" | cmp - "$TMP/solo_B.json" ||
	fail "spec B run beside spec A differs from spec B run alone"
cmp -s "$TMP/solo_A.json" "$TMP/solo_B.json" && fail "the two specs returned the same bytes; the comparison proved nothing"

echo "== backpressure: overflow the queue"
# Long jobs tie up every job runner (there are GOMAXPROCS of them); the
# queue (cap 2) then fills and the next submission must bounce with
# 429 + Retry-After.
BIG='{"experiment": "flood", "graph": {"family": "random", "n": 500, "m": 2000}, "trials": 400}'
curl -sf -X POST -d "$BIG" "$BASE/api/v1/jobs" >/dev/null || fail "long job rejected"
k=0
while curl -sf -X POST -d "$BIG" "$BASE/api/v1/jobs" >/dev/null; do
	k=$((k + 1))
	[ "$k" -gt 64 ] && fail "65 long jobs admitted by a queue of 2; no backpressure"
done
CODE="$(curl -s -o "$TMP/429.json" -w '%{http_code}' -D "$TMP/429.hdr" -X POST -d "$BIG" "$BASE/api/v1/jobs")"
[ "$CODE" = "429" ] || fail "expected 429 on a full queue, got $CODE"
grep -qi '^retry-after:' "$TMP/429.hdr" || fail "429 response lacks Retry-After"

echo "== graceful shutdown on SIGTERM"
kill -TERM "$SERVER_PID"
EXIT=0
wait "$SERVER_PID" || EXIT=$?
SERVER_PID=""
[ "$EXIT" -eq 0 ] || fail "server exited $EXIT on SIGTERM (want clean 0)"
grep -q "drained" "$TMP/server.log" || fail "server log does not mention draining"

echo "serve_smoke: PASS"
