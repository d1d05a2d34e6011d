#!/usr/bin/env bash
# unrun.sh [max] — print every function declared in a non-test internal/
# file that no run of the repository's binaries executes, as
# `file:line pkg.Name`, then their count. With max, exits 1 when the count
# exceeds it.
#   make unrun            the list and the count
#   make unrun MAX=47     the same, failing above 47
#   make unrun-gate       the same, failing above the Makefile's UNRUN_MAX
#
# Where `make deadcode` lists what no binary links, this lists what no run
# reaches: each binary is built with coverage over every package and run as
# a user runs it — the yottactl demo and subcommands, the four examples, the
# four benchmark workloads at 2 s each with their per-layer drivers
# (--trace 1), and the full benchrunner — and the functions left at 0 % are
# printed. A listed function is reached only by tests, by a path no run
# takes (an error branch, an unused option), or not at all. Without max it
# exits 0 whenever the runs succeed. Takes a few minutes; benchrunner
# dominates.
set -euo pipefail
cd "$(dirname "$0")/.."

max="${1:-}"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/bin" "$tmp/cov" "$tmp/work"

go build -cover -coverpkg=./... -o "$tmp/bin/" \
	./cmd/benchrunner ./cmd/yottactl ./examples/* ./bench

# Every run writes its counters into cov and its files into work.
run() { (cd "$tmp/work" && GOCOVERDIR="$tmp/cov" "$@" > /dev/null); }

run "$tmp/bin/yottactl"
run "$tmp/bin/yottactl" trace -ms 200 -jsonl trace.jsonl
run "$tmp/bin/yottactl" top -ms 500
run "$tmp/bin/yottactl" telemetry -ms 500 -jsonl t.jsonl -events e.jsonl -prom t.prom
for ex in examples/*/; do
	run "$tmp/bin/$(basename "$ex")"
done
for w in block-mixed block-read-hot pfs-stream object-mixed; do
	run "$tmp/bin/bench" --workload "$w" --seed 1 --seconds 2 --trace 1
done
run "$tmp/bin/benchrunner"

# covdata prints `path/file.go:line:<tab>Name<tab>pct%`; keep internal/
# functions at 0 % and name them the way `make deadcode` does.
go tool covdata func -i "$tmp/cov" |
	awk -F'\t+' '$NF == "0.0%" && $1 ~ /^repro\/internal\// {
		sub(/^repro\//, "", $1); sub(/:$/, "", $1); sub(/^\*/, "", $2)
		n = split($1, path, "/")
		print $1, path[n - 1] "." $2
	}' | sort -t: -k1,1 -k2,2n > "$tmp/unrun.txt"
cat "$tmp/unrun.txt"
count=$(wc -l < "$tmp/unrun.txt")
echo "unrun: $count functions"
if [ -n "$max" ] && [ "$count" -gt "$max" ]; then
	echo "unrun: $count functions no run executes, more than the bound of $max" >&2
	exit 1
fi
