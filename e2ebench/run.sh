#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources into
# .bench_build/ and runs it with the given arguments:
#
#   bash e2ebench/run.sh --workload sim-qos --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The build runs on every call, so the
# binary always matches the sources; with the Go build cache kept under
# .bench_build/ an unchanged tree relinks in about a second. Every build
# artefact stays under .bench_build/, so the run touches nothing outside the
# checkout; the module has no third-party requirements, so the build never
# needs the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
bin="$out/e2ebench"
mkdir -p "$out"
(
	cd "$root/e2ebench"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS= \
		GOPROXY=off GOTOOLCHAIN=local GOENV=off \
		go build -trimpath -o "$bin" .
)
exec "$bin" "$@"
