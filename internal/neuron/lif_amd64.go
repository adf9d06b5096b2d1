//go:build !race

package neuron

import (
	"math/bits"

	"parallelspikesim/internal/check"
	"parallelspikesim/internal/fixed"
)

// avx2 is read once: whether this host runs the AVX2 kernels.
var avx2 = fixed.AVX2()

// candidatesVec steps the lanes [lo, lo+4k), the whole groups of four in
// [lo, hi), on the AVX2 kernel where the host has it, and returns the
// first lane it left for candidatesGo, with out extended by its
// candidates.
//
//psslint:noalloc
func (p *Population) candidatesVec(lo, hi int, dt, now, thetaDecay float64, adapt bool, current []float64, out []int) (int, []int) {
	hi = lo + (hi-lo)&^3
	if !avx2 || hi <= lo {
		return lo, out
	}
	prm := &p.Params
	for i := lo; i < hi; {
		n, crossed := lif4AVX2(p.V[i:hi], p.theta[i:hi], p.refractoryTill[i:hi], p.inhibitedTill[i:hi], current[i:hi],
			prm.A, prm.B, prm.C, dt, prm.VReset, prm.VThreshold, thetaDecay, now, adapt)
		i += n
		for ; crossed != 0; crossed &= crossed - 1 {
			out = append(out, i-4+bits.TrailingZeros(crossed))
		}
	}
	if check.Enabled {
		// The membrane assertion of candidatesGo, over the lanes the
		// kernel stepped rather than held.
		for i := lo; i < hi; i++ {
			if !(now < p.inhibitedTill[i] || now < p.refractoryTill[i]) {
				check.Finite("neuron: membrane after Euler step", p.V[i])
			}
		}
	}
	return hi, out
}

// lif4AVX2 is candidatesGo over the lanes of v, four per pass, up to the
// first group of four with a candidate. A pass decays theta when adapt is
// set, builds the held mask now < inhibitedTill || now < refractoryTill,
// takes the Euler step v + dt·((a + b·v) + c·I), blends vReset into the
// held lanes, stores v, and marks the lanes, not held, where
// v > vTh + theta. It returns the lanes stepped, a multiple of four, and
// the marks of the last group, lane j of it in bit j (0 when it stepped
// every whole group without a candidate). Every operation is a rounded
// IEEE lane operation in candidatesGo's order, and none is an FMA.
//
//go:noescape
func lif4AVX2(v, theta, refractoryTill, inhibitedTill, current []float64, a, b, c, dt, vReset, vTh, thetaDecay, now float64, adapt bool) (n int, crossed uint)
