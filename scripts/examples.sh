#!/usr/bin/env bash
# examples.sh — build every example under examples/, run each twice and
# exit 1 if a run exits non-zero or the two runs print different output:
# an example is a walkthrough a reader runs, so it must work and, on the
# deterministic simulator, say the same thing every time.
#   make examples
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/" ./examples/*
status=0
for dir in examples/*/; do
	name=$(basename "$dir")
	for run in 1 2; do
		if ! "$tmp/$name" > "$tmp/$name.$run" 2>&1; then
			echo "examples: $name exited non-zero (run $run):"
			cat "$tmp/$name.$run"
			status=1
			continue 2
		fi
	done
	if ! cmp -s "$tmp/$name.1" "$tmp/$name.2"; then
		echo "examples: $name printed different output on two runs:"
		diff -u "$tmp/$name.1" "$tmp/$name.2" || true
		status=1
		continue
	fi
	echo "examples: $name ok ($(wc -l < "$tmp/$name.1") lines)"
done
exit $status
