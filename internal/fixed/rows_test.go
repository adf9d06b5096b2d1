package fixed

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// rowsFormats adds a 32-bit format, packable but beyond NewFormat's 31-bit
// cap, to the four the packed store serves: AccumulateRows must fall back
// to the per-row form for it rather than misread its lanes.
var rowsFormats = append(append([]Format(nil), packableFormats...), Format{IntBits: 10, FracBits: 22})

// rowsFixture is a packed matrix of nRows rows of n lanes each, random
// codes across the whole code range, rows stored back to back.
func rowsFixture(p *Packing, r *rand.Rand, nRows, n int) (words []Word, stride int) {
	stride = p.WordsFor(n)
	levels := uint64(p.laneMask) + 1
	for row := 0; row < nRows; row++ {
		codes := make([]uint32, n)
		for i := range codes {
			codes[i] = uint32(r.Uint64() % levels)
		}
		if row == 0 && n > 0 {
			codes[0] = uint32(levels - 1) // pin the top rail
		}
		words = append(words, p.Pack(codes)...)
	}
	return words, stride
}

// perRowAccumulate is the reference AccumulateRows must match bit for bit:
// the decay (a clear when decay is 0) of every lane in [lo, hi), then one
// AccumulateRange call per listed row, in list order.
func perRowAccumulate(p *Packing, words []Word, stride int, rows []int, amp, decay float64, cur []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		if decay == 0 {
			cur[i] = 0
		} else {
			cur[i] *= decay
		}
	}
	for _, r := range rows {
		p.AccumulateRange(words[r*stride:(r+1)*stride], amp, cur, lo, hi)
	}
}

// sameCurrents fails on the first lane whose bits differ.
func sameCurrents(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: cur[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// checkRowsMatch runs AccumulateRows, AccumulateRowsGo and the per-row
// reference from the same starting currents and fails on any bit
// difference, inside or outside [lo, hi). For 8-bit lanes on a build and
// host that run the AVX2 block kernel, it also runs that kernel's entry
// directly against the Go block kernel over the whole blocks of [lo, hi).
func checkRowsMatch(t *testing.T, p *Packing, words []Word, stride int, rows []int, amp, decay float64, start []float64, lo, hi int) {
	t.Helper()
	what := fmt.Sprintf("%s n=%d [%d,%d) rows=%v amp=%v decay=%v", p.Format(), len(start), lo, hi, rows, amp, decay)
	got := append([]float64(nil), start...)
	want := append([]float64(nil), start...)
	p.AccumulateRows(words, stride, rows, amp, decay, got, lo, hi)
	perRowAccumulate(p, words, stride, rows, amp, decay, want, lo, hi)
	sameCurrents(t, what, got, want)
	copy(got, start)
	p.AccumulateRowsGo(words, stride, rows, amp, decay, got, lo, hi)
	sameCurrents(t, what+" Go blocks", got, want)

	blo := (lo + blockLanes - 1) &^ (blockLanes - 1)
	bhi := hi &^ (blockLanes - 1)
	if p.Width() != 8 || !avx2 || blo >= bhi {
		return
	}
	copy(got, start)
	copy(want, start)
	p.blocks8(words, stride, rows, amp, decay, got, blo, bhi)
	p.blocks8Go(words, stride, rows, amp, decay, want, blo, bhi)
	sameCurrents(t, what+" AVX2 blocks", got, want)
}

// TestAccumulateRowsMatchesPerRow: the register-blocked kernel is
// bit-identical to the per-row loop for every packable format, lane counts
// that are not multiples of the word or block width, unaligned windows
// (including windows with no full block), empty, duplicate and unsorted
// row lists, and decays of 1, ±0 (a clear) and between.
func TestAccumulateRowsMatchesPerRow(t *testing.T) {
	r := rand.New(rand.NewSource(0x5ba7))
	for _, f := range rowsFormats {
		p := mustPacking(t, f)
		for _, n := range []int{1, 3, 7, 8, 9, 13, 37, 4*p.Lanes() + 3, 100, 1000} {
			const nRows = 24
			words, stride := rowsFixture(p, r, nRows, n)
			start := make([]float64, n)
			for i := range start {
				start[i] = r.NormFloat64()
			}
			rowSets := [][]int{
				nil,
				{},
				{5},
				{2, 2},
				{0, 3, 3, 9, 23},
				{23, 1, 17, 1, 4}, // unsorted: the kernel follows list order
			}
			for len(rowSets) < 14 {
				rows := make([]int, r.Intn(12))
				for i := range rows {
					rows[i] = r.Intn(nRows)
				}
				rowSets = append(rowSets, rows)
			}
			windows := [][2]int{{0, n}, {0, 0}, {n, n}, {n / 2, n / 2}}
			for i := 0; i < 20; i++ {
				lo := r.Intn(n + 1)
				windows = append(windows, [2]int{lo, lo + r.Intn(n-lo+1)})
			}
			if n >= 16 {
				windows = append(windows, [2]int{1, 7}, [2]int{3, 11}, [2]int{8, 16}, [2]int{9, n - 1})
			}
			decays := []float64{1, 0, math.Copysign(0, -1), math.Exp(-0.25), r.Float64()}
			for k, rows := range rowSets {
				for _, w := range windows {
					amp := r.NormFloat64() * 3
					checkRowsMatch(t, p, words, stride, rows, amp, decays[k%len(decays)], start, w[0], w[1])
				}
			}
		}
	}
}

// TestAccumulateRowsRejectsRowOutsideMatrix: a spike row past the last
// row of the matrix panics on every kernel rather than reading past the
// words.
func TestAccumulateRowsRejectsRowOutsideMatrix(t *testing.T) {
	for _, f := range packableFormats {
		p := mustPacking(t, f)
		words, stride := rowsFixture(p, rand.New(rand.NewSource(1)), 4, 64)
		for _, row := range []int{4, -1} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: row %d of a 4-row matrix did not panic", f, row)
					}
				}()
				p.AccumulateRows(words, stride, []int{0, row}, 1, 0.5, make([]float64, 64), 0, 64)
			}()
		}
	}
}

// FuzzAccumulateRows is the differential of TestAccumulateRowsMatchesPerRow
// under fuzzer-chosen geometry, windows, row lists, amplitudes and decays.
// The decay is a trace decay factor, drawn from [0, 1] with both ends
// exact: a NaN decay would put two NaNs of different payloads into one
// add, whose result Go does not define.
func FuzzAccumulateRows(f *testing.F) {
	f.Add(uint8(2), uint16(1000), uint16(334), uint16(667), []byte{0, 3, 3, 9}, 0.6, uint16(51040), int64(1))
	f.Add(uint8(2), uint16(1000), uint16(0), uint16(1000), []byte{0, 3, 3, 9, 1, 2, 15, 8, 4}, 0.6, uint16(0), int64(5))
	f.Add(uint8(0), uint16(37), uint16(5), uint16(6), []byte{}, -1.5, uint16(math.MaxUint16), int64(2))
	f.Add(uint8(3), uint16(13), uint16(0), uint16(13), []byte{7, 7, 7}, 1e-300, uint16(1), int64(3))
	f.Add(uint8(1), uint16(64), uint16(8), uint16(56), []byte{1, 0}, math.Inf(1), uint16(40000), int64(4))
	f.Fuzz(func(t *testing.T, fmtSel uint8, n, lo, hi uint16, rowBytes []byte, amp float64, decayBits uint16, seed int64) {
		decay := float64(decayBits) / math.MaxUint16
		p := mustPacking(t, rowsFormats[int(fmtSel)%len(rowsFormats)])
		nn := int(n)%1200 + 1
		l, h := int(lo)%(nn+1), int(hi)%(nn+1)
		if l > h {
			l, h = h, l
		}
		const nRows = 16
		r := rand.New(rand.NewSource(seed))
		words, stride := rowsFixture(p, r, nRows, nn)
		rows := make([]int, len(rowBytes)%64)
		for i := range rows {
			rows[i] = int(rowBytes[i]) % nRows
		}
		start := make([]float64, nn)
		for i := range start {
			start[i] = r.NormFloat64()
		}
		checkRowsMatch(t, p, words, stride, rows, amp, decay, start, l, h)
	})
}

// BenchmarkAccumulateRows compares one train-fast step's integrate work —
// the current decay and 9 spiking rows over the whole 1000-neuron layer,
// as network.Core runs it — done per row after a decay pass, and fused
// and register-blocked.
func BenchmarkAccumulateRows(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	decay := math.Exp(-0.25) // dt 1 ms, tau_syn 4 ms
	for _, f := range packableFormats {
		p := mustPacking(b, f)
		words, stride := rowsFixture(p, r, 784, 1000)
		rows := []int{12, 87, 150, 151, 300, 402, 555, 610, 777}
		cur := make([]float64, 1000)
		b.Run(f.String()+"/per-row", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				perRowAccumulate(p, words, stride, rows, 0.6, decay, cur, 0, 1000)
			}
		})
		b.Run(f.String()+"/blocked", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.AccumulateRows(words, stride, rows, 0.6, decay, cur, 0, 1000)
			}
		})
	}
}
