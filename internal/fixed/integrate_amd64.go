//go:build !race

package fixed

import "errors"

// errRowRange is the AVX2 kernels' panic for a spike row whose words or
// weights lie outside the matrix.
var errRowRange = errors.New("fixed: spike row outside the matrix")

// avx2 reports whether this host runs the AVX2 kernels: the CPU has AVX2
// and the operating system saves the YMM registers across context
// switches. It is read once, at package initialization.
var avx2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0b110 != 0b110 { // XMM and YMM state
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// avx512 reports whether this host runs the AVX-512F/DQ kernels: the CPU
// has AVX-512F and AVX-512DQ, and the operating system saves the XMM, YMM,
// opmask and both halves of the ZMM state (XCR0 bits 1, 2, 5, 6 and 7)
// across context switches. It is read once, at package initialization.
var avx512 = detectAVX512()

func detectAVX512() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(1<<27) == 0 { // OSXSAVE
		return false
	}
	const zmmState = 0b1110_0110
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const f, dq = 1 << 16, 1 << 17
	return ebx7&(f|dq) == f|dq
}

// blocks8 runs AccumulateRows' 8-bit blocks over the block-aligned lanes
// [lo, hi) on the AVX2 kernel, or on blocks8Go where the host lacks AVX2.
func (p *Packing) blocks8(words []Word, stride int, rows []int, amp, decay float64, cur []float64, lo, hi int) {
	if !avx2 {
		p.blocks8Go(words, stride, rows, amp, decay, cur, lo, hi)
		return
	}
	p.blocks8AVX2(words, stride, rows, amp, decay, cur, lo, hi)
}

// blocks8AVX2 is blocks8Go on the AVX2 kernel. The assembly checks no
// bounds, so every row is checked here against the words it will read,
// and a row outside the matrix panics, as the Go kernel's indexing would.
//
//psslint:noalloc
func (p *Packing) blocks8AVX2(words []Word, stride int, rows []int, amp, decay float64, cur []float64, lo, hi int) {
	wlo, whi := lo/blockLanes, hi/blockLanes
	for _, r := range rows {
		if uint(r) >= uint(len(words)) || r*stride+whi > len(words) {
			panic(errRowRange)
		}
	}
	accumulate8AVX2(words[wlo:], stride, rows, p.step, amp, decay, cur[lo:hi])
}

// accumulate8AVX2 is the fused decay and accumulate of 8-bit lanes, eight
// lanes per block and len(cur)/8 blocks. Block k loads cur[8k:8k+8] and
// scales it by decay (clears it when decay is ±0), then, for each row r in
// rows order, widens the eight codes of words[r·stride+k] to int32
// (VPMOVZXBD), converts them to float64 (VCVTDQ2PD), multiplies by step
// and then by amp, and adds; then it stores the block. code·step is exact,
// so each product is the amp-scaled LUT entry accumulateBlocks8 adds, and
// no instruction fuses a multiply into an add.
//
//go:noescape
func accumulate8AVX2(words []Word, stride int, rows []int, step, amp, decay float64, cur []float64)

// weightGroups runs AccumulateWeightRows over [lo, hi), whose length is a
// multiple of 4, on the AVX2 kernel, or on AccumulateWeightRowsGo where
// the host lacks AVX2. The assembly checks no bounds, so the window is
// checked against the row length and every row against the store, and
// either outside panics, as the Go loop's indexing would.
//
//psslint:noalloc
func weightGroups(g []Weight, stride int, rows []int, amp, decay float64, cur []float64, lo, hi int) {
	if !avx2 {
		AccumulateWeightRowsGo(g, stride, rows, amp, decay, cur, lo, hi)
		return
	}
	c := cur[lo:hi]
	if hi > stride {
		panic(errRowRange)
	}
	nRows := len(g) / stride
	for _, r := range rows {
		if uint(r) >= uint(nRows) {
			panic(errRowRange)
		}
	}
	accumulateWeightsAVX2(g[lo:], stride, rows, amp, decay, c)
}

// accumulateWeightsAVX2 is the fused decay and accumulate of float64
// lanes, len(cur) a multiple of 4: 16 lanes per block while 16 remain,
// then 4 per group. A block loads cur and scales it by decay (clears it
// when decay is ±0), then, for each row r in rows order, multiplies the
// row's weights g[r·stride+k] by amp and adds the products; then it stores
// the block. No instruction fuses a multiply into an add.
//
//go:noescape
func accumulateWeightsAVX2(g []Weight, stride int, rows []int, amp, decay float64, cur []float64)

// cpuid executes CPUID with EAX = leaf and ECX = sub.
//
//go:noescape
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0). Call it only where
// CPUID reports OSXSAVE.
//
//go:noescape
func xgetbv() (eax, edx uint32)
