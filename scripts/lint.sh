#!/bin/sh
# lint.sh — the exact lint battery CI's blocking `lint` job runs.
#
#   ./scripts/lint.sh
#
# Steps:
#   1. gofmt          — formatting, including testdata packages
#   2. go vet         — the stock toolchain analyzers
#   3. costsense-vet  — the project suite (detmap, detsource,
#                       hotpathalloc, hotpathtrans, arenaref,
#                       lockguard, ctxflow, errflow);
#                       see DESIGN.md, "Static analysis & invariants"
#   4. costsense-vet -audit — the directive inventory: stale,
#                       unjustified or unknown //costsense: directives
#                       are blocking (JSON goes to /dev/null here; the
#                       nightly CI job keeps it as an artifact)
#   5. staticcheck    — pinned version, via `go run`
#
# staticcheck runs only where it is installed or the module proxy can
# fetch it, which in practice means CI. Offline without a staticcheck
# binary, step 5 prints a warning and is skipped, so locally this
# script is steps 1-4. CI sets REQUIRE_STATICCHECK=1, which makes a
# missing staticcheck fatal there.
set -eu

cd "$(dirname "$0")/.."

STATICCHECK_VERSION="${STATICCHECK_VERSION:-2025.1.1}"

echo "==> gofmt"
out="$(gofmt -l .)"
if [ -n "$out" ]; then
	echo "files need gofmt:" >&2
	echo "$out" >&2
	exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> costsense-vet"
go run ./cmd/costsense-vet ./...

echo "==> costsense-vet -audit"
go run ./cmd/costsense-vet -audit ./... >/dev/null

echo "==> staticcheck ($STATICCHECK_VERSION)"
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
elif GOFLAGS=-mod=mod go run "honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION" ./... 2>/tmp/staticcheck.err; then
	:
elif grep -qi 'dial tcp\|no such host\|proxy' /tmp/staticcheck.err 2>/dev/null && [ "${REQUIRE_STATICCHECK:-0}" != "1" ]; then
	echo "staticcheck unavailable offline; skipped (set REQUIRE_STATICCHECK=1 to make this fatal)" >&2
else
	cat /tmp/staticcheck.err >&2
	exit 1
fi

echo "lint: all clean"
