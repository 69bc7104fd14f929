#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it
# with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload warm_sweep --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build/e2ebench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" CGO_ENABLED=0 GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd e2ebench && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"
