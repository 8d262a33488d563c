#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (Go's build cache
# included, so nothing is written outside the checkout) and runs it from
# the repository root with the given flags.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/go-cache" GOMODCACHE="$root/.bench_build/go-mod" GOTOOLCHAIN=local
go build -C bench -o "$root/.bench_build/midas-bench" .
exec "$root/.bench_build/midas-bench" "$@"
