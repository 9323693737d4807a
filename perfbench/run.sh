#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Every file
# the build or the run writes stays under the build directory
# (CARGO_TARGET_DIR when set, .bench_build otherwise), so the checkout is
# the only place the benchmark touches. Arguments pass through to the
# binary: --workload NAME --seed N --seconds S --trace 0|1.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
out="$(cd "$out" && pwd)"

# The Go caches, temporary files and the toolchain's local telemetry
# counters (kept under the user config directory) all go to the build
# directory; modules resolve from the checkout alone.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOENV=off

go -C perfbench build -trimpath -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
