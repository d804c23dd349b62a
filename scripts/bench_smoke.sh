#!/bin/sh
# bench_smoke.sh — builds and briefly runs the service benchmark.
#
# bench/ is a module of its own, so the root `go test ./...` neither
# compiles nor tests it: a change to an API the benchmark compiles
# against passes the root suite and breaks only when the benchmark
# runs. This script closes that gap in two steps:
#
#   1. `go vet ./...` and `go test ./...` inside bench/ — its build, and
#      its replica checked against the server byte for byte;
#   2. `bash bench/run.sh` for three seconds on each of the four
#      workloads, asserting that each run's JSON verdict (the last line)
#      reads "correct":true.
#
# It times nothing: three seconds only proves that every workload
# builds, runs and verifies. Runs locally and in CI's bench-smoke job:
#
#   ./scripts/bench_smoke.sh
set -eu

here="$(cd "$(dirname "$0")/.." && pwd)"

(cd "$here/bench" && go vet ./... && go test ./...)

for workload in sweep-hot one-shot-large tiny-durable protocol-mix; do
	verdict="$(bash "$here/bench/run.sh" --workload "$workload" --seed 1 --seconds 3 | tail -n 1)"
	case "$verdict" in
	*'"correct":true'*) echo "bench_smoke: $workload: correct" ;;
	*)
		echo "bench_smoke: $workload: no \"correct\":true in the verdict: $verdict" >&2
		exit 1
		;;
	esac
done
