//go:build simcheck

package check

import (
	"math"
	"strings"
	"testing"

	"parallelspikesim/internal/fixed"
)

// mustPanic runs f and returns the recovered simcheck message, failing the
// test if f does not panic or panics with something else.
func mustPanic(t *testing.T, f func()) string {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			msg, ok := r.(string)
			if !ok || !strings.HasPrefix(msg, "simcheck: ") {
				t.Fatalf("panic value %v is not a simcheck message", r)
			}
		}
	}()
	f()
	t.Fatal("expected a simcheck panic")
	return ""
}

func TestEnabled(t *testing.T) {
	if !Enabled {
		t.Fatal("Enabled must be true under -tags simcheck")
	}
}

func TestFinite(t *testing.T) {
	Finite("ok", 0.5)
	Finite("ok", -1e300)
	mustPanic(t, func() { Finite("bad", math.NaN()) })
	mustPanic(t, func() { Finite("bad", math.Inf(1)) })
	mustPanic(t, func() { Finite("bad", math.Inf(-1)) })
}

func TestAssert(t *testing.T) {
	Assert(true, "unused")
	mustPanic(t, func() { Assert(false, "boom %d", 7) })
}

func TestInRange(t *testing.T) {
	InRange("ok", 0.5, 0, 1)
	InRange("ok", 0, 0, 1)
	InRange("ok", 1, 0, 1)
	mustPanic(t, func() { InRange("bad", 1.5, 0, 1) })
	mustPanic(t, func() { InRange("bad", math.NaN(), 0, 1) })
}

func TestConductance(t *testing.T) {
	f := fixed.Q1p7
	Conductance("ok", 0.5, f, 0, 1)
	// Off-grid value for Q1.7 (step 1/128).
	mustPanic(t, func() { Conductance("bad", 0.5+f.Step()/3, f, 0, 1) })
	mustPanic(t, func() { Conductance("bad", 1.5, f, 0, 1) })
	// The float path has no grid: any finite in-range value passes.
	Conductance("ok", 0.123456789, fixed.Float32, 0, 1)
}

func TestWeightUpdateOneStepRule(t *testing.T) {
	f := fixed.Q1p7 // 8-bit: the one-step rule applies
	step := f.Step()
	WeightUpdate("ok", 0.5, 0.5+step, f, 0, 1)
	WeightUpdate("ok", 0.5, 0.5-step, f, 0, 1)
	WeightUpdate("ok", 0.5, 0.5, f, 0, 1)
	mustPanic(t, func() { WeightUpdate("bad", 0.5, 0.5+2*step, f, 0, 1) })

	// 16-bit: magnitudes follow eq. 4/5, no one-step constraint.
	f16 := fixed.Q1p15
	WeightUpdate("ok", 0.5, 0.75, f16, 0, 1)
}

func TestWeightUpdateLoosensSaturationBounds(t *testing.T) {
	// Saturation is applied before rounding, so the stored value may land
	// one grid step outside [lo, hi] — but no further, and never outside
	// the format range.
	f := fixed.Q1p7
	step := f.Step() // 1/128
	gMin := 0.1      // off-grid floor: truncation can land just below it
	oldG := 13 * step
	newG := 12 * step // one step down, 0.00625 below gMin
	WeightUpdate("ok", oldG, newG, f, gMin, 1)
	mustPanic(t, func() { WeightUpdate("bad", 12*step, 11*step, f, gMin, 1) })
}

func TestCounterAdvance(t *testing.T) {
	CounterAdvance("ok", 3, 5)
	mustPanic(t, func() { CounterAdvance("bad", 5, 5) })
	mustPanic(t, func() { CounterAdvance("bad", 5, 4) })
}
