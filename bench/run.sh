#!/usr/bin/env bash
# run.sh — the one command of the service benchmark.
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the load generator (this directory, a module of its own) and
# ./cmd/costsense from source into bench/out/bin, then runs the load
# generator against a real `costsense serve` child process. Everything
# the build and the run write — the Go build cache included — stays
# under bench/out, so a checkout is touched nowhere else.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out/bin"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local

# Both builds are no-ops when the sources are unchanged. Without the
# repository around it (no ../go.mod) the first one fails, and so does
# the benchmark: there is no program to measure.
(cd "$here" && go build -o "$out/bin/servicebench" .)
(cd "$here/.." && go build -o "$out/bin/costsense" ./cmd/costsense)

exec "$out/bin/servicebench" -bin "$out/bin/costsense" -out "$out" "$@"
