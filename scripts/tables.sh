#!/usr/bin/env bash
# Experiment tables of a base revision against this checkout: the check a
# change that must not move any table runs before it lands.
#
#   scripts/tables.sh BASE [IDS]     (make experiments-diff BASE=… ONLY=…)
#
# BASE is any git revision; it is exported into a temporary directory, as
# scripts/benchpair.sh does, and both trees build and run cmd/benchrunner
# (restricted to the comma-separated experiment ids IDS when given, e.g.
# E5,E13Q,A1). The checkout's working tree is the change, uncommitted edits
# included. The two stdouts must be byte-identical: on a difference the
# script prints `diff -u` of them and exits 1. The full list takes a few
# minutes per side on two cores; the reduced-scale ids take seconds.
set -euo pipefail
base=${1:?usage: scripts/tables.sh BASE [IDS]}
only=${2:-}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"

# tables DIR OUT: build DIR's benchrunner and write its tables to OUT.
tables() {
	(cd "$1" && go build -o "$tmp/benchrunner" ./cmd/benchrunner)
	"$tmp/benchrunner" ${only:+-only "$only"} >"$2"
}

echo "tables: base $base" >&2
tables "$tmp/base" "$tmp/base.txt"
echo "tables: working tree" >&2
tables "$root" "$tmp/change.txt"
if cmp -s "$tmp/base.txt" "$tmp/change.txt"; then
	echo "tables: identical to $base${only:+ ($only)}"
	exit 0
fi
diff -u --label "base $base" --label "working tree" "$tmp/base.txt" "$tmp/change.txt" || true
echo "tables: differ from $base" >&2
exit 1
