package fixed

// AccumulateWeightRows is eq. 3 for one step over the lanes [lo, hi) of an
// unpacked conductance store (the float formats): it first decays each
// current, cur[i] *= decay, or clears it when decay is 0, and then adds
// float64(g·amp) of every row listed in rows into cur[i], in rows order.
// g holds the rows back to back, stride weights each, so row r starts at
// g[r·stride]; duplicate rows add twice. A row outside g or a lane at or
// past stride panics.
//
// The lanes of [lo, hi) that fill groups of four run on the AVX2 kernel
// where the host has it (see AVX2): per block of 16 lanes it loads and
// decays the currents once, adds every row's products into registers and
// stores the block once, where the per-row form loads and stores every
// current once per row. Each lane still takes the same rounded multiply
// and add, in the same order, as AccumulateWeightRowsGo, so the currents
// do not depend on the kernel. The at most three lanes left over, and
// every lane on other hosts and builds, run AccumulateWeightRowsGo.
//
//psslint:noalloc
func AccumulateWeightRows(g []Weight, stride int, rows []int, amp, decay float64, cur []float64, lo, hi int) {
	if n := (hi - lo) &^ 3; n > 0 {
		weightGroups(g, stride, rows, amp, decay, cur, lo, lo+n)
		lo += n
	}
	AccumulateWeightRowsGo(g, stride, rows, amp, decay, cur, lo, hi)
}

// AccumulateWeightRowsGo is AccumulateWeightRows as the per-row Go loop: a
// decay pass, then one pass over [lo, hi) per listed row. It is the oracle
// of the AVX2 kernel and the fallback where that kernel does not run. The
// explicit conversion rounds each product before its add, so no compiler
// may fuse the two into an FMA and the sums are the same on every
// architecture.
//
//psslint:noalloc
func AccumulateWeightRowsGo(g []Weight, stride int, rows []int, amp, decay float64, cur []float64, lo, hi int) {
	decayRange(cur[lo:hi], decay)
	for _, r := range rows {
		row := g[r*stride : (r+1)*stride]
		for i := lo; i < hi; i++ {
			cur[i] += float64(float64(row[i]) * amp)
		}
	}
}
