#!/usr/bin/env bash
# Builds the server under test, the generator and the layer ladder from
# the checkout's sources into .bench_build/ and runs the generator with
# the arguments given. Everything read or written stays inside the
# checkout: Go's build cache and temp dir are pointed there too.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" GOFLAGS= GOTOOLCHAIN=local

(cd "$root" && go build -o "$out/ofmf" ./cmd/ofmf)
(cd "$bench" && go build -o "$out/ofmfbench" ./ofmfbench)
args=(-root "$root" -ofmf "$out/ofmf")
prev=
for a in "$@"; do
	case "$prev $a" in
	"--trace 1" | "-trace 1" | *" --trace=1" | *" -trace=1")
		# The ladder calls the layers' Go APIs, so a refactor can break its
		# build without touching the HTTP surface; only traced runs need it.
		(cd "$bench" && go build -o "$out/ofmfladder" ./ofmfladder)
		args+=(-ladder "$out/ofmfladder")
		;;
	esac
	prev="$a"
done
exec "$out/ofmfbench" "${args[@]}" "$@"
