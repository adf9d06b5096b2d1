//go:build !amd64 || race

package fixed

// avx2 is false off amd64 and in race builds: the race detector cannot
// see memory that assembly touches, so race builds run the Go kernels.
const avx2 = false

// avx512 is false off amd64 and in race builds, for the same reason.
const avx512 = false

// blocks8 runs AccumulateRows' 8-bit blocks on the Go kernel.
func (p *Packing) blocks8(words []Word, stride int, rows []int, amp, decay float64, cur []float64, lo, hi int) {
	p.blocks8Go(words, stride, rows, amp, decay, cur, lo, hi)
}

// weightGroups runs AccumulateWeightRows' groups of four lanes on the Go
// loop.
func weightGroups(g []Weight, stride int, rows []int, amp, decay float64, cur []float64, lo, hi int) {
	AccumulateWeightRowsGo(g, stride, rows, amp, decay, cur, lo, hi)
}
