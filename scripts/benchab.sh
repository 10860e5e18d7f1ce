#!/usr/bin/env bash
# Paired A/B of one ofmfbench workload: <base-ref> against this checkout,
# the table choosing-metrics §8 asks for. The base ref is exported (git
# archive: nothing is registered in .git) to .bench_build/base-<sha>/ and
# bench/run.sh is run alternately in both trees, the side that goes first
# flipping every pair, so host drift lands on both sides alike. Prints,
# per end-to-end metric (all are lower-is-better, see BENCHMARK.json),
# both medians, both quartile pairs, in how many pairs the head read
# better, and a verdict (choosing-metrics §6.5, §8), with the metric's
# bound read from BENCHMARK.json:
#   unresolved  the base's own quartile spread, over its median, exceeds
#               the bound, and not every head run beats every base run
#   better      the head wins at least nine pairs in ten (ties count for
#               neither) and the medians differ by more than the base's
#               quartile spread; or, when the spread exceeds the bound,
#               every head run beats every base run
#   worse       the head median is past the base median by more than the
#               bound
#   same        none of these
# A metric BENCHMARK.json gives no bound (failed_checks) gets "-".
# Writes nothing outside .bench_build/ and records nothing.
# Before the first run it prints one host line, so tables from
# different sessions can be told apart: CPUs, the CPUs this process may
# run on, the Go toolchain, the kernel, the filesystem type of
# .bench_build/ (where the runs' data dirs live, so the WAL's syncs land
# on it), both shas and whether the head tree has uncommitted changes.
set -euo pipefail
[ $# -ge 2 ] || { echo "usage: $0 <base-ref> <workload> [pairs=10] [seed=1]" >&2; exit 2; }
ref=$1 workload=$2 pairs=${3:-10} seed=${4:-1}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sha="$(git -C "$root" rev-parse --verify "$ref^{commit}")"
base="$root/.bench_build/base-$sha"
if [ ! -d "$base" ]; then
	rm -rf "$base.tmp" && mkdir -p "$base.tmp"
	git -C "$root" archive "$sha" | tar -x -C "$base.tmp"
	mv "$base.tmp" "$base"
fi
head_sha="$(git -C "$root" rev-parse --short HEAD)"
dirty=clean; [ -z "$(git -C "$root" status --porcelain --untracked-files=no)" ] || dirty=dirty
cpus="$(awk '/^Cpus_allowed_list/ { print $2 }' /proc/self/status 2>/dev/null)"
fs="$(stat -f -c %T "$root/.bench_build" 2>/dev/null)"
echo "host: nproc $(nproc) cpus ${cpus:-unknown} $(go version | awk '{ print $3, $4 }') kernel $(uname -r) fs ${fs:-unknown} base ${sha:0:7} head $head_sha ($dirty)"
# run <side> <tree> <pair>: one run; its metric lines as "pair side name value".
run() {
	bash "$2/bench/run.sh" --workload "$workload" --seed "$seed" --seconds 15 --trace 0 |
		awk -v side="$1" -v pair="$3" 'NF == 3 && $2 ~ /^[0-9.e+-]+$/ { print pair, side, $1, $2 }
			/^\{"correct"/ { match($0, /"failed":[0-9]+/); print pair, side, "failed_checks", substr($0, RSTART + 9, RLENGTH - 9) }'
}
rows=""
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then order="base head"; else order="head base"; fi
	for side in $order; do
		tree="$root"; [ "$side" = base ] && tree="$base"
		echo "pair $i/$pairs: $side" >&2
		out="$(run "$side" "$tree" "$i")"
		echo "$out" >&2 # every run made, as it is made
		rows+="$out"$'\n'
	done
done
# "name bound" for every end-to-end metric of BENCHMARK.json, as its
# "end_to_end" list spells them, one member a line.
bounds="$(awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
	on && /"name":/ { gsub(/[",]/, "", $2); name = $2 }
	on && /"bound":/ { gsub(/,/, "", $2); print name, $2 }' "$root/BENCHMARK.json")"
echo "$workload seed $seed: base $ref (${sha:0:7}) vs head, $pairs alternating pairs, lower is better"
printf '%-22s %11s %23s %11s %23s %9s %10s\n' metric base_median base_quartiles head_median head_quartiles head_wins verdict
printf '%s' "$rows" | awk -v bounds="$bounds" '
	function quantile(m, s, p,    pos, lo) { pos = (n[m, s] - 1) * p; lo = int(pos)
		return v[m, s, lo] + (pos - lo) * (v[m, s, (lo + 1 < n[m, s]) ? lo + 1 : lo] - v[m, s, lo]) }
	function verdict(m, wins,    b, bm, hm, iqr) { if (!(m in bound)) return "-"
		b = bound[m]; bm = quantile(m, "base", .5); hm = quantile(m, "head", .5)
		iqr = quantile(m, "base", .75) - quantile(m, "base", .25)
		if (bm > 0 && iqr / bm > b) return (v[m, "head", n[m, "head"] - 1] < v[m, "base", 0]) ? "better" : "unresolved"
		if (wins * 10 >= pairs * 9 && bm - hm > iqr) return "better"
		if (hm > bm * (1 + b)) return "worse"
		return "same" }
	BEGIN { nb = split(bounds, line, "\n"); for (i = 1; i <= nb; i++) { split(line[i], f, " "); bound[f[1]] = f[2] } }
	NF == 4 { m = $3; s = $2; if (!(m in seen)) { seen[m] = 1; names[++k] = m }
		at[m, s, $1] = $4
		for (j = n[m, s]++; j > 0 && v[m, s, j - 1] > $4; j--) v[m, s, j] = v[m, s, j - 1]   # insertion sort
		v[m, s, j] = $4; if ($1 > pairs) pairs = $1 }
	END { for (i = 1; i <= k; i++) { m = names[i]; wins = 0
		for (p = 1; p <= pairs; p++) if (at[m, "head", p] + 0 < at[m, "base", p] + 0) wins++
		printf "%-22s %11.5g %11.5g-%-11.5g %11.5g %11.5g-%-11.5g %6d/%d %10s\n", m,
			quantile(m, "base", .5), quantile(m, "base", .25), quantile(m, "base", .75),
			quantile(m, "head", .5), quantile(m, "head", .25), quantile(m, "head", .75), wins, pairs, verdict(m, wins) } }'
