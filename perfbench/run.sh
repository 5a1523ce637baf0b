#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# replaces itself with the benchmark process:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the checkout.  Build products, the Go build
# cache, run directories and span files all stay under .bench_build there;
# nothing is fetched (GOPROXY=off) and the module has no dependencies.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --dir "$out" "$@"
