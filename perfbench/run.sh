#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload figreplay --seed 1 --seconds 30 --trace 0
#
# Run from the root of a checkout. Every build product, the Go build cache
# and the span files stay under .bench_build/ in the checkout; the toolchain
# never downloads anything. Without the module sources next to perfbench/
# the build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
	case "$CARGO_TARGET_DIR" in
	/*) build="$CARGO_TARGET_DIR" ;;
	*) build="$root/$CARGO_TARGET_DIR" ;;
	esac
else
	build="$root/.bench_build"
fi
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/home"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
	XDG_CACHE_HOME="$build/home" GOENV=off GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOTELEMETRY=off

go -C "$root/perfbench" build -trimpath -o "$build/perfbench/perfbench" . >&2
exec "$build/perfbench/perfbench" --out "$build/perfbench" "$@"
