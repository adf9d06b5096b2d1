//go:build !race

package synapse

import "parallelspikesim/internal/fixed"

// avx512 is read once: whether this host runs the AVX-512 draw kernel.
var avx512 = fixed.AVX512()

// rollDraws is rollDrawsGo with the whole groups of eight pres drawn by
// the AVX-512 kernel where the host has it; the at most seven pres left,
// and every pre on other hosts, run rollDrawsGo. dep must be at least as
// long as pot: the slice below checks that before the assembly, which
// checks no bounds, writes it.
//
//psslint:noalloc
func rollDraws(hPot, hDep uint64, post, lo int, pot, dep []uint64) {
	if g := len(pot) &^ 7; avx512 && g > 0 {
		rollDrawsAVX512(hPot, hDep, uint64(post), uint64(lo), pot[:g], dep[:g])
		pot, dep, lo = pot[g:], dep[g:], lo+g
	}
	rollDrawsGo(hPot, hDep, post, lo, pot, dep)
}

// rollDrawsAVX512 is rollDrawsGo over the first len(pot) &^ 7 pres, eight
// lanes at a time: per lane, the three SplitMix64 rounds of each draw run
// in 64-bit integer lanes, multiplying with VPMULLQ (AVX-512DQ). Integer
// arithmetic wraps the same way in every lane and in Go, so the draws are
// bit-identical to rollDrawsGo's.
//
//go:noescape
func rollDrawsAVX512(hPot, hDep, post, lo uint64, pot, dep []uint64)
