#!/usr/bin/env bash
# Builds psserve and the benchmark harness from this checkout's sources,
# then runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload train-fast --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/psserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a parallelspikesim checkout" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/bin/psserve" ./cmd/psserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
