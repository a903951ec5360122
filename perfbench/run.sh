#!/usr/bin/env bash
# Builds the benchmark runner from this checkout's sources and runs it.
# Usage: bash perfbench/run.sh --workload pipeline|serve|serve-faulty
#          [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--corrupt output|account]
# Run from the repository root. Build outputs, the Go build cache, span
# files and determinism digests all stay under .bench_build/ in the
# checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: run from the repository root (no go.mod or internal/ here)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off CGO_ENABLED=0
# The official Go distribution installs here; use it when go is not on PATH.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

go -C "$root/perfbench" build -trimpath -o "$out/perfbench" .
exec "$out/perfbench" --outdir "$out" "$@"
