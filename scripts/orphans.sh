#!/usr/bin/env bash
# orphans.sh — print every internal/ package that no command, example or
# benchmark builds (directly or through another package), and exit 1 if
# there is one: a package nothing reaches is code no system runs.
#   make orphans
set -euo pipefail
cd "$(dirname "$0")/.."

orphans=$(comm -23 <(go list ./internal/... | sort) \
	<(go list -deps ./cmd/... ./examples/... ./bench/... | sort))
if [ -n "$orphans" ]; then
	echo "$orphans"
	exit 1
fi
