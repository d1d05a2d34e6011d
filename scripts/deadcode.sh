#!/usr/bin/env bash
# deadcode.sh — print, as `file:line pkg.Recv.Name`, every function and
# method declared in a non-test internal/ file that no command, example or
# benchmark binary contains, and, as `file:line pkg.Name`, every
# package-level var and const declared there that no non-test code names,
# unless scripts/deadcode.allow names it; exit 1 if there is one (or if the
# allow-list names one that is not dead).
#   make deadcode
#
# The binaries are built with inlining off, so a function the linker kept is
# a symbol of its own; the linker keeps anything it cannot prove
# unreachable, so a listed function runs only in tests. The scan reads
# `^func` lines, which is sound on gofmt'd source (CI checks gofmt).
# A var or const leaves no symbol of its own to look for (a const never
# does), so those come from the source instead: `go run ./scripts/maporder
# -unused` type-checks the module's non-test code and lists each one that
# nothing names. An allow-list line is `pkg.Recv.Name reason`: a test
# instrument that another package's tests call.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -gcflags=all=-l -o "$tmp/" \
	./cmd/benchrunner ./cmd/yottactl ./examples/* ./bench

# Linked symbols as pkg.Recv.Name: type arguments dropped (they may hold
# spaces, so the name runs from nm's third field to the end of the line),
# (*T) read as T, and closures, go/defer wrappers, range-func bodies and
# method values folded into the function that declares them.
for bin in "$tmp"/*; do
	go tool nm "$bin"
done | sed -nE 's#^ *[0-9a-f]+ [Tt] repro/internal/(.*)$#\1#p' | sed -E '
	:brackets
	s/\[[^][]*\]//g
	t brackets
	s#^([^.]*/)##
	s/\(\*([^)]*)\)/\1/g
	s/-fm$//
	:suffix
	s/(\.(func|gowrap|deferwrap)?[0-9]+|-range[0-9]+)$//
	t suffix' | sort -u > "$tmp/linked"

# Declared functions as `file:line pkg.Recv.Name`; pkg is the directory.
find internal -name '*.go' ! -name '*_test.go' -print0 | sort -z |
	xargs -0 awk '
	/^func / {
		s = substr($0, 6); recv = ""
		if (s ~ /^\(/) {
			recv = substr(s, 2, index(s, ")") - 2)
			s = substr(s, index(s, ")") + 2)
			sub(/\[.*\]/, "", recv); sub(/.* /, "", recv); sub(/^\*/, "", recv)
			recv = recv "."
		}
		match(s, /^[A-Za-z_][A-Za-z0-9_]*/)
		name = substr(s, 1, RLENGTH)
		if (recv == "" && name == "init") next
		n = split(FILENAME, dir, "/")
		print FILENAME ":" FNR, dir[n - 1] "." recv name
	}' > "$tmp/declared"

{
	awk 'FILENAME == ARGV[1] { linked[$0] = 1; next } !($2 in linked)' \
		"$tmp/linked" "$tmp/declared"
	go run ./scripts/maporder -unused
} | sort -t: -k1,1 -k2,2n > "$tmp/dead"

awk 'NF { print $1 }' scripts/deadcode.allow | sort -u > "$tmp/allowed"

status=0
awk 'FILENAME == ARGV[1] { allowed[$1] = 1; next } !($2 in allowed)' \
	"$tmp/allowed" "$tmp/dead" > "$tmp/unallowed"
if [ -s "$tmp/unallowed" ]; then
	cat "$tmp/unallowed"
	status=1
fi
stale=$(awk 'FILENAME == ARGV[1] { dead[$2] = 1; next } !($1 in dead)' \
	"$tmp/dead" "$tmp/allowed")
if [ -n "$stale" ]; then
	echo "scripts/deadcode.allow names functions that are not dead:" >&2
	echo "$stale" >&2
	status=1
fi
exit $status
