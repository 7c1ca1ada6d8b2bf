#!/usr/bin/env bash
# Builds the currencyd load benchmark from the sources of the checkout it
# sits in, then runs it with the given arguments. Run from the repository
# root:
#
#	bash loadbench/run.sh --workload exact-read --seed 1 --seconds 24 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# current directory. Without the repository around loadbench/ the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/loadbench" && go build -o "$build/loadbench" .) >&2
exec "$build/loadbench" "$@"
