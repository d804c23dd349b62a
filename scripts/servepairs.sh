#!/bin/sh
# servepairs.sh — before/after pairs of the service benchmark, and the
# table EXPERIMENTS.md prints from them.
#
#   scripts/servepairs.sh run <parent-checkout> <workload> <first-seed> <pairs> >> BENCH_serve_pairs.ndjson
#   scripts/servepairs.sh table BENCH_serve_pairs.ndjson [<first-seed> <last-seed>]
#
# `run` runs `bash bench/run.sh` in a checkout of the parent commit and
# in this one, pair by pair, the same seed inside a pair and the side
# that goes first alternating from pair to pair (seconds 26, trace 0,
# as BENCHMARK.json declares), and prints each run's last line, the
# benchmark's JSON verdict, tagged with side, workload, seed and the
# run's results_digest. `table` reduces such a file to one markdown row
# per workload and metric: each side's median and quartiles, the ratio
# of the medians, and in how many pairs the change was the better of
# the two; then one row per workload saying in how many pairs the two
# sides' digests agree. The file accumulates one batch of pairs per
# change, each on its own seeds; a seed range picks one batch out.
set -eu

here="$(cd "$(dirname "$0")/.." && pwd)"

case "${1:-}" in
run)
	parent="$2" workload="$3" seed="$4" pairs="$5"
	i=0
	while [ "$i" -lt "$pairs" ]; do
		order="parent change"
		[ $((i % 2)) -eq 1 ] && order="change parent"
		for side in $order; do
			dir="$here"
			[ "$side" = parent ] && dir="$parent"
			out="$(bash "$dir/bench/run.sh" --workload "$workload" --seed "$((seed + i))" --seconds 26 --trace 0)"
			digest="$(printf '%s\n' "$out" | sed -n 's/^results_digest \([0-9a-f]*\) .*/\1/p')"
			printf '{"side":"%s","workload":"%s","seed":%d,"digest":"%s","run":%s}\n' "$side" "$workload" "$((seed + i))" "$digest" "$(printf '%s\n' "$out" | tail -n 1)"
		done
		i=$((i + 1))
	done
	;;
table)
	echo "| workload | metric | parent median (q1–q3) | change median (q1–q3) | change ÷ parent | pairs won |"
	echo "|---|---|---:|---:|---:|---:|"
	for workload in one-shot-large sweep-hot protocol-mix tiny-durable; do
		for metric in jobs_per_s job_latency_p50_ms job_latency_p95_ms server_cpu_ms_per_job events_per_s server_rss_peak_mb setup_s result_bytes_per_job; do
			grep "\"workload\":\"$workload\"" "$2" |
				sed -n "s/.*\"side\":\"\([a-z]*\)\".*\"seed\":\([0-9]*\),.*\"$metric\":{\"value\":\([0-9.e+-]*\).*/\2 \1 \3/p" |
				sort -k1,1n -k2,2r | # by seed, the parent's run of a pair first
				awk -v w="$workload" -v m="$metric" -v lo="${3:-0}" -v hi="${4:-2147483647}" '
					function sorted(a, n,    i, j, t) {
						for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
					}
					function quantile(a, n, q,    pos, lo) { # a sorted; linear interpolation between order statistics
						pos = 1 + (n - 1) * q; lo = int(pos)
						return lo >= n ? a[n] : a[lo] + (pos - lo) * (a[lo+1] - a[lo])
					}
					$1 < lo || $1 > hi { next }
					$2 == "parent" { p[++np] = $3; last = $3 }
					$2 == "change" { c[++nc] = $3
						higher = (m == "jobs_per_s" || m == "events_per_s")
						if ((higher && $3 > last) || (!higher && $3 < last)) won++ }
					END { if (np == 0 || np != nc) exit
						sorted(p, np); sorted(c, nc)
						printf "| %s | %s | %.4g (%.4g–%.4g) | %.4g (%.4g–%.4g) | %.2f | %d of %d |\n", w, m,
							quantile(p, np, .5), quantile(p, np, .25), quantile(p, np, .75),
							quantile(c, nc, .5), quantile(c, nc, .25), quantile(c, nc, .75),
							quantile(c, nc, .5) / quantile(p, np, .5), won, np }'
		done
	done
	rows="$(for workload in one-shot-large sweep-hot protocol-mix tiny-durable; do
		grep "\"workload\":\"$workload\"" "$2" |
			sed -n 's/.*"side":"\([a-z]*\)".*"seed":\([0-9]*\),"digest":"\([0-9a-f]*\)".*/\2 \1 \3/p' |
			sort -k1,1n -k2,2r |
			awk -v w="$workload" -v lo="${3:-0}" -v hi="${4:-2147483647}" '
				$1 < lo || $1 > hi { next }
				$2 == "parent" { seed = $1; d = $3 }
				$2 == "change" && $1 == seed { n++; if ($3 != "" && $3 == d) same++ }
				END { if (n > 0) printf "| %s | %d of %d |\n", w, same, n }'
	done)"
	if [ -n "$rows" ]; then # runs recorded before digests were kept have none
		printf '\n| workload | pairs whose results_digest agrees |\n|---|---:|\n%s\n' "$rows"
	fi
	;;
*)
	sed -n '2,18p' "$0" >&2
	exit 2
	;;
esac
