//go:build simcheck

// Package check is the simulator's build-tag-gated runtime sanitizer.
//
// Built with `-tags simcheck`, every function asserts a simulator invariant
// and panics with a "simcheck:" message on violation; built without the tag
// (the default), the same functions are empty, inline away to nothing, and
// the Enabled constant lets hot loops guard even the argument evaluation:
//
//	if check.Enabled {
//		check.Finite("neuron: membrane", v)
//	}
//
// The asserted invariants are the ones the type system cannot carry:
// membrane potentials stay finite (no NaN/Inf from a bad dt or parameter
// set), conductances stay inside their Qm.n range and on its grid (paper
// eqs. 6–8), low-precision updates move at most one quantization step
// (§III-C's ΔG = 1/2^n), winner-take-all leaves exactly one firing neuron,
// and checkpoint counters advance monotonically. CI runs the tier-1 tests
// under `-tags simcheck -race`, so every code path the tests reach is
// sanitized on every merge.
package check

import (
	"fmt"
	"math"

	"parallelspikesim/internal/fixed"
)

// Enabled reports whether the sanitizer is compiled in. It is a constant,
// so `if check.Enabled { … }` blocks vanish entirely without the tag.
const Enabled = true

// Failf panics with a formatted simcheck violation.
func Failf(format string, args ...any) {
	panic("simcheck: " + fmt.Sprintf(format, args...))
}

// Assert panics with the formatted message when cond is false.
func Assert(cond bool, format string, args ...any) {
	if !cond {
		Failf(format, args...)
	}
}

// Finite asserts v is neither NaN nor ±Inf.
func Finite(ctx string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		Failf("%s: non-finite value %v", ctx, v)
	}
}

// FiniteSlice asserts every element of vs is finite.
func FiniteSlice(ctx string, vs []float64) {
	for i, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			Failf("%s: non-finite value %v at index %d", ctx, v, i)
		}
	}
}

// InRange asserts lo ≤ v ≤ hi.
func InRange(ctx string, v, lo, hi float64) {
	if !(v >= lo && v <= hi) { // negated form also catches NaN
		Failf("%s: value %v outside [%v, %v]", ctx, v, lo, hi)
	}
}

// Conductance asserts a stored conductance invariant: finite, inside the
// effective [lo, hi] bounds (G_min .. min(G_max, format max)) and exactly
// representable on the format's Qm.n grid.
func Conductance(ctx string, g float64, f fixed.Format, lo, hi float64) {
	Finite(ctx, g)
	InRange(ctx, g, lo, hi)
	if !f.OnGrid(g) {
		Failf("%s: conductance %v off the %s grid (step %v)", ctx, g, f, f.Step())
	}
}

// WeightUpdate asserts a plasticity write: the new conductance satisfies
// Conductance, and — for the paper's ≤8-bit learning modes, where the
// update amplitude is pinned to the quantization scale 1/2^n (§III-C) —
// the write moved the conductance by at most one grid step. The saturation
// bounds [lo, hi] are applied before the rounding step, so the stored value
// may legitimately land up to one grid step outside them (never outside the
// format's own range); the bounds are loosened accordingly.
func WeightUpdate(ctx string, oldG, newG float64, f fixed.Format, lo, hi float64) {
	step := f.Step()
	Conductance(ctx, newG, f, math.Max(f.Min(), lo-step), math.Min(f.Max(), hi+step))
	if bits := f.Bits(); bits > 0 && bits <= 8 {
		if d := math.Abs(newG - oldG); d > step*(1+1e-9) {
			Failf("%s: ≤8-bit update moved %v (old %v, new %v), more than one step %v",
				ctx, d, oldG, newG, step)
		}
	}
}

// CounterAdvance asserts a progress counter strictly advanced (next > prev).
func CounterAdvance(ctx string, prev, next int) {
	if next <= prev {
		Failf("%s: counter did not advance (%d -> %d)", ctx, prev, next)
	}
}
