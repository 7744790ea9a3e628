#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build
# directory and runs it with the arguments given. Everything the Go
# toolchain writes (build cache, scratch files, its own settings) is kept
# inside the checkout, and nothing is fetched from the network.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
cd "$here"
go build -o "$build/ldbench" .
exec "$build/ldbench" "$@"
