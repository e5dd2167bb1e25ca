#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the caller's arguments.
# Everything the build and the run write stays under .bench_build in the
# checkout: the Go build cache, temporary files, the binary, durability
# data and traces.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
(
	cd "$here"
	GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod" \
		XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
		go build -o "$build/htapbench" .
) >&2
exec "$build/htapbench" -dir "$build" "$@"
