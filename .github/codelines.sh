#!/usr/bin/env bash
# Prints the repository's code size: non-test Go lines outside bench/
# and .bench_build/, not counting blank and comment-only lines.
# Usage: bash .github/codelines.sh [repo-root]   (default: .)
set -euo pipefail
cd "${1:-.}"
find . \( -path ./bench -o -path ./.bench_build -o -path ./.git \) -prune \
	-o -name '*.go' ! -name '*_test.go' -print0 |
	xargs -0 cat | grep -cvE '^[[:space:]]*($|//)'
