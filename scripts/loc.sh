#!/usr/bin/env bash
# What a simplicity PR tallies in CHANGES.md, from git instead of by hand:
# Go lines added/removed since <base-ref> (working tree included, so it
# reads the same before and after the commit), split into non-test code
# under internal/ and cmd/, tests, and bench/ (frozen between benchmark
# PRs: must read 0/0), plus the number of flag definitions in
# cmd/*/main.go at both refs. Untracked files are not in `git diff`:
# `git add -N` new files first. Prints; records nothing.
set -euo pipefail
[ $# -eq 1 ] || { echo "usage: $0 <base-ref>" >&2; exit 2; }
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sha="$(git -C "$root" rev-parse --verify "$1^{commit}")"
git -C "$root" diff --numstat "$sha" -- '*.go' | awk -v base="$1" -v sha="${sha:0:7}" '
	{ class = "other"
	  if ($3 ~ /^bench\//) class = "bench"
	  else if ($3 ~ /_test\.go$/) class = "tests"
	  else if ($3 ~ /^(internal|cmd)\//) class = "nontest"
	  add[class] += $1; del[class] += $2 }
	END { printf "Go lines since %s (%s): added removed net\n", base, sha
	  split("nontest tests bench other", order, " ")
	  label["nontest"] = "non-test internal/+cmd/"; label["tests"] = "tests (*_test.go)"
	  label["bench"] = "bench/ (must be 0 0)"; label["other"] = "other Go (examples, root)"
	  for (i = 1; i <= 4; i++) { c = order[i]
		printf "  %-26s %+6d %+6d %+6d\n", label[c], add[c], -del[c], add[c] - del[c] } }'
# flag definitions: calls on package flag (or a FlagSet named fs) that
# declare one, e.g. flag.String( / flag.DurationVar(.
flags() { grep -ohE '\b(flag|fs)\.(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64|Func|Var|TextVar)(Var)?\(' "$@" 2>/dev/null | wc -l; }
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
git -C "$root" archive "$sha" cmd | tar -x -C "$tmp"
printf 'flag definitions in cmd/*/main.go: %d at %s, %d now\n' \
	"$(flags "$tmp"/cmd/*/main.go)" "${sha:0:7}" "$(flags "$root"/cmd/*/main.go)"
