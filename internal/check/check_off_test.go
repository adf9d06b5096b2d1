//go:build !simcheck

package check

import (
	"math"
	"testing"

	"parallelspikesim/internal/fixed"
)

// TestDisabledIsInert proves the default build compiles the sanitizer to
// no-ops: every function swallows inputs that would panic under
// -tags simcheck.
func TestDisabledIsInert(t *testing.T) {
	if Enabled {
		t.Fatal("Enabled must be false without the simcheck build tag")
	}
	Failf("would panic under simcheck")
	Assert(false, "would panic under simcheck")
	Finite("x", math.NaN())
	InRange("x", 5, 0, 1)
	Conductance("x", 0.123, fixed.Q0p2, 0, 1)
	WeightUpdate("x", 0, 1, fixed.Q0p2, 0, 1)
	CounterAdvance("x", 5, 5)
}

// BenchmarkDisabledOverhead measures the instrumentation pattern used in
// the simulator hot loops. Without the simcheck tag, Enabled is a
// compile-time false, the guarded block is dead code, and the benchmark
// must run at the speed of the bare loop (sub-nanosecond per iteration).
func BenchmarkDisabledOverhead(b *testing.B) {
	f := fixed.Q1p7
	v := 0.5
	for i := 0; i < b.N; i++ {
		v = -v
		if Enabled {
			check := v // evaluated only under -tags simcheck
			WeightUpdate("bench", check, check, f, 0, 1)
		}
	}
	sink = v
}

var sink float64
