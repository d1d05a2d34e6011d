#!/usr/bin/env bash
# loc.sh [rev] — non-test Go lines per package and in total, of the working
# tree or of a git revision: the number ROADMAP item 11 gates on.
#   make loc            the working tree
#   make loc REV=HEAD~1 a revision, for the before/after line in CHANGES.md
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

rev="${1:-}"
if [ -n "$rev" ]; then
	list() { git ls-tree -r --name-only "$rev"; }
	lines() { git show "$rev:$1" | wc -l; }
else
	list() { git ls-files --cached --others --exclude-standard; }
	lines() { wc -l < "$1"; }
fi

list | grep '\.go$' | grep -v '_test\.go$' | while read -r f; do
	[ -n "$rev" ] || [ -f "$f" ] || continue # deleted in the working tree
	echo "$(dirname "$f") $(lines "$f")"
done | awk '
	{ n[$1] += $2; total += $2 }
	END {
		for (p in n) printf "%7d  %s\n", n[p], p | "sort -k2"
		close("sort -k2")
		printf "%7d  total\n", total
	}'
