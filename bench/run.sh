#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Everything the build and the run leave behind stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/traces"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$out/pioman-bench" . >&2
exec "$out/pioman-bench" -trace-dir "$out/traces" "$@"
