#!/usr/bin/env bash
# knobs.sh [rev] [max] — the settable values a caller has: exported fields
# of every *Config and *Options struct, plus telemetry's watchdogs
# (HotSpot, SLO, Stall), which callers configure the same way, by field.
# Prints one line per struct, a subtotal per package and the total, of the
# working tree or of a git revision. With max, exits 1 when the total
# exceeds it.
#   make knobs            the working tree
#   make knobs REV=HEAD~1 a revision, for the before/after line in CHANGES.md
#   make knobs MAX=102    the working tree, failing above 102
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

rev="${1:-}"
max="${2:-}"
if [ -n "$rev" ]; then
	list() { git ls-tree -r --name-only "$rev"; }
	show() { git show "$rev:$1"; }
else
	list() { git ls-files --cached --others --exclude-standard; }
	show() { cat "$1"; }
fi

out=$(list | grep '\.go$' | grep -v '_test\.go$' | while read -r f; do
	[ -n "$rev" ] || [ -f "$f" ] || continue # deleted in the working tree
	# gofmt'd source: a struct's own fields sit one tab in, and a field line
	# "A, B T" declares one name per comma plus one; an embedded struct
	# ("\tBladeConfig", "\tcoherence.BladeConfig") is one field.
	show "$f" | awk -v pkg="$(dirname "$f")" '
		/^type ([A-Z][A-Za-z0-9]*)?(Config|Options) struct \{$/ ||
		/^type (HotSpot|SLO|Stall) struct \{$/ { typ = $2; n = 0; next }
		typ != "" && /^}/ { print pkg, typ, n; typ = ""; next }
		typ != "" && /^\t([a-z][a-z0-9]*\.)?[A-Z]/ { k = 1; while ($k ~ /,$/) k++; n += k }
	'
done | sort -k1,1 -k2,2 | awk '
	function flush() { if (cur != "") printf "%7d  %s\n", sub_n, cur }
	$1 != cur { flush(); cur = $1; sub_n = 0 }
	{ printf "%7d  %s.%s\n", $3, $1, $2; sub_n += $3; total += $3 }
	END { flush(); printf "%7d  total\n", total }')
echo "$out"
total=$(echo "$out" | awk 'END { print $1 }')
if [ -n "$max" ] && [ "$total" -gt "$max" ]; then
	echo "knobs: $total settable values, more than the bound of $max" >&2
	exit 1
fi
