#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload migrate-jisc-9way --seed 1 --seconds 20 --trace 0
#
# Every build product and scratch file stays under .bench_build/ (or
# $CARGO_TARGET_DIR when set) inside the checkout. Without the
# repository's sources next to perfbench/ the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build == /* ]] || build=$root/$build
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

go -C "$root/perfbench" build -trimpath -o "$build/perfbench" .
exec "$build/perfbench" --workdir "$build" "$@"
