#!/usr/bin/env bash
# reusetwin.sh — the program without recycling must run byte for byte as the
# program with it. Built with the tag noreuse, every sim.Spare list hands out
# nothing and drops what is put back (DESIGN §22), so a record that a stale
# owner still reads after it went back on a list shows here as a divergence
# between the two builds. Three checks, about a minute on two cores:
#   1. the golden trace, the quick tables and sim.TestSpare pass in the twin;
#   2. benchrunner -only E11 (a lossy fabric: timeouts, retries, late and
#      duplicated replies) prints the same bytes in both builds;
#   3. every sim_* value of the benchmark (seed 1, 2 s, untraced) is the
#      same in both builds, on each of its four workloads.
# The full `go test -tags noreuse ./...` is not expected to pass: the
# testing.AllocsPerRun gates measure the recycling the twin turns off.
#   make reuse-twin
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go test -count=1 -tags noreuse -run 'TestTraceGolden$|TestQuickTablesGolden$|TestSpare' \
	./internal/experiments ./cmd/benchrunner ./internal/sim

status=0
for build in reuse noreuse; do # no file names the tag reuse: the default build
	go build -tags "$build" -o "$tmp/$build/" ./cmd/benchrunner ./bench
	"$tmp/$build/benchrunner" -only E11 >"$tmp/$build/e11" 2>&1 || echo "exit status $?" >>"$tmp/$build/e11"
done
if ! cmp -s "$tmp/reuse/e11" "$tmp/noreuse/e11"; then
	echo "reuse-twin: E11 differs without recycling:"
	diff -u --label reuse --label noreuse "$tmp/reuse/e11" "$tmp/noreuse/e11" || true
	status=1
fi

for workload in block-mixed block-read-hot pfs-stream object-mixed; do
	for build in reuse noreuse; do
		"$tmp/$build/bench" --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1 |
			grep -o '"sim_[a-z_0-9]*":{"value":[^,]*' >"$tmp/$build/$workload"
	done
	if ! [ -s "$tmp/reuse/$workload" ] || ! cmp -s "$tmp/reuse/$workload" "$tmp/noreuse/$workload"; then
		echo "reuse-twin: $workload's sim_* values differ without recycling:"
		diff --label reuse --label noreuse "$tmp/reuse/$workload" "$tmp/noreuse/$workload" || true
		status=1
	fi
done
[ "$status" = 0 ] && echo "reuse-twin: identical with and without recycling"
exit "$status"
