#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it; every
# argument is passed on. Run from the repository root:
#
#   bash perfbench/run.sh --workload oltp --seed 1 --seconds 25 --trace 0
#
# Build outputs and the Go build cache stay inside the checkout, in
# $CARGO_TARGET_DIR (default .bench_build). The benchmark is a module of its
# own that uses the engine's module from the parent directory, so without
# the repository around it the build fails and nothing is printed on
# standard output.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --commit "$commit" "$@"
