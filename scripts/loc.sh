#!/usr/bin/env bash
# loc.sh [rev] [max] — non-test Go lines per package and in total, of the
# working tree or of a git revision: the number ROADMAP item 11 gates on.
# With max, it also prints the product lines (the total without scripts/)
# and exits 1 when they exceed max.
#   make loc            the working tree
#   make loc REV=HEAD~1 a revision, for the before/after line in CHANGES.md
#   make loc-gate       the working tree against the Makefile's LOC_MAX
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

rev="${1:-}"
max="${2:-}"
if [ -n "$rev" ]; then
	list() { git ls-tree -r --name-only "$rev"; }
	lines() { git show "$rev:$1" | wc -l; }
else
	list() { git ls-files --cached --others --exclude-standard; }
	lines() { wc -l < "$1"; }
fi

out=$(list | grep '\.go$' | grep -v '_test\.go$' | while read -r f; do
	[ -n "$rev" ] || [ -f "$f" ] || continue # deleted in the working tree
	echo "$(dirname "$f") $(lines "$f")"
done | awk '
	{ n[$1] += $2; total += $2 }
	END {
		for (p in n) printf "%7d  %s\n", n[p], p | "sort -k2"
		close("sort -k2")
		printf "%7d  total\n", total
	}')
echo "$out"
if [ -n "$max" ]; then
	product=$(echo "$out" | awk '$2 != "total" && $2 !~ /^scripts(\/|$)/ { n += $1 } END { print n + 0 }')
	echo "product lines (non-test Go outside scripts/): $product, max $max"
	if [ "$product" -gt "$max" ]; then
		echo "FAIL: $product product lines, more than LOC_MAX $max" >&2
		exit 1
	fi
fi
