#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on:
#   bash perfbench/run.sh --workload isp-failover --seed 1 --seconds 30 --trace 0
# Run it from the repository root. Everything it builds or writes stays in
# .bench_build/ there: the Go build and module caches, the binary, span
# dumps and the verification service's temporary cache files.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS= GOTELEMETRY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
