#!/bin/sh
# check-allocs.sh is the zero-allocation ratchet for the simulator's hot
# paths. It fails the build when:
#
#   - a function annotated //psslint:noalloc heap-allocates according to the
#     compiler's own escape analysis (go build -gcflags=-m), with the
#     offending file:line in the output;
#   - a function listed in scripts/allocs-baseline.txt loses its annotation
#     (the ratchet only tightens — once a hot path is pinned at zero
#     allocations it stays pinned);
#   - a testing.AllocsPerRun gate (the TestNoAlloc* tests in the annotated
#     packages) measures a nonzero per-call allocation rate at runtime.
#
# The escape half catches allocations the compiler can prove; the
# AllocsPerRun half catches the rest (pool misses, append growth, interface
# boxing through generics). See DESIGN.md §15 for the annotation contract.
set -eu
cd "$(dirname "$0")/.."

go run ./cmd/psslint -escape -baseline scripts/allocs-baseline.txt ./...

go test -run 'TestNoAlloc' -count=1 \
	./internal/fixed/ ./internal/encode/ ./internal/neuron/ \
	./internal/synapse/ ./internal/infer/ ./internal/network/

echo "check-allocs: ok"
