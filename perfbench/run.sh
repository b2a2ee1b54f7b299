#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root; every argument is passed through. Build products, the Go
# build cache and run scratch all live under $CARGO_TARGET_DIR (default
# .bench_build), so the run writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS="-mod=mod -buildvcs=false" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
export PERFBENCH_OUT="$out"
exec "$out/perfbench" "$@"
