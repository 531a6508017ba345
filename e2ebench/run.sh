#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build
# and the run write (Go build cache, the binary, temp, spill and log
# files) stays under .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local TMPDIR="$build/tmp"
(cd "$here" && go build -o "$build/e2ebench" .)
cd "$root"
exec "$build/e2ebench" "$@"
