#!/bin/sh
# bench.sh — measure the simulator engine and refresh BENCH_sim.json.
#
# Runs the pure-engine throughput benchmark (BenchmarkEngineFlood:
# flooding on a 5000-node / 40000-edge random graph), its
# observer-attached twins (BenchmarkEngineObserved,
# BenchmarkEngineCausal) and its fault-injected twin
# (BenchmarkEngineFaulty, informational) several times and records the
# averaged numbers next to the frozen pre-optimization baseline. Run
# from the repository root:
#
#   ./scripts/bench.sh
#
# Guard mode diffs a fresh measurement against the checked-in
# BENCH_sim.json instead of overwriting it, and fails when allocs/op
# regresses by more than 15% (events/sec is reported but not gated —
# CI timing is too noisy). CI's bench-smoke job runs this:
#
#   BENCH_CHECK=1 ./scripts/bench.sh
set -eu

cd "$(dirname "$0")/.."

COUNT="${BENCH_COUNT:-3}"
OUT="${BENCH_OUT:-BENCH_sim.json}"

if [ "${BENCH_CHECK:-0}" = "1" ]; then
	# Before measuring anything: the committed document's derived ratio
	# strings must match its own measured fields (catches a hand-edited
	# baseline/current with a stale "improvement" block).
	if ! go run ./scripts/benchjson -recompute BENCH_sim.json | diff -q - BENCH_sim.json >/dev/null; then
		echo "BENCH_sim.json derived ratios are stale; regenerate with:" >&2
		echo "  go run ./scripts/benchjson -recompute BENCH_sim.json > BENCH_sim.json.new && mv BENCH_sim.json.new BENCH_sim.json" >&2
		exit 1
	fi
	OUT="$(mktemp -t bench_fresh.XXXXXX.json)"
	trap 'rm -f "$OUT"' EXIT
fi

# The hot-path trio runs COUNT times. The sweep pair
# (BenchmarkEngineSweepFresh / BenchmarkEngineSweepPooled, one op = a
# 100-trial sweep) tracks the experiment service's substrate-cache +
# pooled-Reset win; BENCH_SWEEP=0 skips it.
{
	go test -run '^$' -bench '^BenchmarkEngine(Flood|Observed|Causal|Faulty)$' -benchmem \
		-benchtime "${BENCH_TIME:-5x}" -count "$COUNT" .
	if [ "${BENCH_SWEEP:-1}" = "1" ]; then
		go test -run '^$' -bench '^BenchmarkEngineSweep(Fresh|Pooled)$' -benchmem \
			-benchtime "${BENCH_SWEEP_TIME:-3x}" -count "$COUNT" .
	fi
} |
	tee /dev/stderr |
	go run ./scripts/benchjson >"$OUT"

if [ "${BENCH_CHECK:-0}" = "1" ]; then
	go run ./scripts/benchguard BENCH_sim.json "$OUT" "${BENCH_MAX_ALLOCS_REGRESS:-0.15}"
else
	echo "wrote $OUT" >&2
fi
