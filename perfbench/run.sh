#!/usr/bin/env bash
# Builds the benchmark and the qrec binaries from this checkout, then runs
# one benchmark run. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cold-sdss --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout,
# including the Go build cache.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench/run.sh: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off

go build -o "$out/bin/" ./cmd/qrec-train ./cmd/qrec-serve ./cmd/qrec-gw
(cd perfbench && go build -o "$out/bin/perfbench" ./cmd/perfbench)

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/runs" "$@"
