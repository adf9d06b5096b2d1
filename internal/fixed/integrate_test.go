package fixed

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// extremes are finite values at the ends of float64's range: the largest
// magnitudes, where a product or a sum overflows to ±Inf (and Inf − Inf
// makes NaN), the subnormals, where a product underflows, and both zeros.
var extremes = []float64{
	math.MaxFloat64, -math.MaxFloat64, 1e308, -1e308,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2e-308, math.Copysign(0, -1), 0,
}

// weightRowsFixture is an unpacked store of nRows rows of n weights each,
// rows back to back. Weights are normal draws in [0, 1), the float store's
// range; with extreme set, one lane in four takes a value from extremes
// instead.
func weightRowsFixture(r *rand.Rand, nRows, n int, extreme bool) []Weight {
	g := make([]Weight, nRows*n)
	for i := range g {
		g[i] = Weight(r.Float64())
		if extreme && r.Intn(4) == 0 {
			g[i] = Weight(extremes[r.Intn(len(extremes))])
		}
	}
	return g
}

// weightCurrents is a starting current vector of n lanes, with extreme
// values mixed in as weightRowsFixture mixes them into the weights.
func weightCurrents(r *rand.Rand, n int, extreme bool) []float64 {
	cur := make([]float64, n)
	for i := range cur {
		cur[i] = r.NormFloat64()
		if extreme && r.Intn(4) == 0 {
			cur[i] = extremes[r.Intn(len(extremes))]
		}
	}
	return cur
}

// checkWeightRowsMatch runs AccumulateWeightRows and its oracle,
// AccumulateWeightRowsGo, from the same starting currents and fails on any
// bit difference, inside or outside [lo, hi). On a host that runs the AVX2
// kernel it also runs the kernel's entry directly over the lanes of
// [lo, hi) that fill groups of four.
func checkWeightRowsMatch(t *testing.T, g []Weight, stride int, rows []int, amp, decay float64, start []float64, lo, hi int) {
	t.Helper()
	what := fmt.Sprintf("float n=%d [%d,%d) rows=%v amp=%v decay=%v", len(start), lo, hi, rows, amp, decay)
	got := append([]float64(nil), start...)
	want := append([]float64(nil), start...)
	AccumulateWeightRows(g, stride, rows, amp, decay, got, lo, hi)
	AccumulateWeightRowsGo(g, stride, rows, amp, decay, want, lo, hi)
	sameCurrents(t, what, got, want)

	ghi := lo + (hi-lo)&^3
	if !avx2 || lo >= ghi {
		return
	}
	copy(got, start)
	copy(want, start)
	weightGroups(g, stride, rows, amp, decay, got, lo, ghi)
	AccumulateWeightRowsGo(g, stride, rows, amp, decay, want, lo, ghi)
	sameCurrents(t, what+" AVX2 groups", got, want)
}

// TestAccumulateWeightRowsMatchesPerRow: the float store's kernel is
// bit-identical to the per-row Go loop for row lengths that are not
// multiples of 4 or 16, unaligned windows (including windows shorter than
// a group), empty, duplicate and unsorted row lists, decays of 1, ±0 (a
// clear) and between, and extreme finite weights and currents.
func TestAccumulateWeightRowsMatchesPerRow(t *testing.T) {
	r := rand.New(rand.NewSource(0xf10a7))
	for _, extreme := range []bool{false, true} {
		for _, n := range []int{1, 3, 4, 5, 12, 15, 16, 17, 31, 37, 100, 1000} {
			const nRows = 24
			g := weightRowsFixture(r, nRows, n, extreme)
			start := weightCurrents(r, n, extreme)
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
			if n >= 20 {
				windows = append(windows, [2]int{1, 4}, [2]int{3, 19}, [2]int{16, 20}, [2]int{1, n - 1})
			}
			decays := []float64{1, 0, math.Copysign(0, -1), math.Exp(-0.25), r.Float64()}
			for k, rows := range rowSets {
				for _, w := range windows {
					amp := r.NormFloat64() * 3
					if extreme && k%3 == 0 {
						amp = extremes[k%len(extremes)]
					}
					checkWeightRowsMatch(t, g, n, rows, amp, decays[k%len(decays)], start, w[0], w[1])
				}
			}
		}
	}
}

// TestAccumulateWeightRowsRejectsOutsideMatrix: a spike row past either
// end of the store, or a window past the end of a row, panics on every
// kernel rather than reading past the weights.
func TestAccumulateWeightRowsRejectsOutsideMatrix(t *testing.T) {
	const nRows, n = 4, 64
	g := weightRowsFixture(rand.New(rand.NewSource(1)), nRows, n, false)
	for _, c := range []struct {
		rows   []int
		lo, hi int
	}{
		{[]int{0, 4}, 0, n},
		{[]int{0, -1}, 0, n},
		{[]int{2}, 4, n + 4}, // the window runs into row 3
	} {
		for _, accumulate := range []func([]Weight, int, []int, float64, float64, []float64, int, int){
			AccumulateWeightRows, AccumulateWeightRowsGo,
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("rows %v over [%d,%d) of a %d×%d store did not panic", c.rows, c.lo, c.hi, nRows, n)
					}
				}()
				accumulate(g, n, c.rows, 1, 0.5, make([]float64, n+4), c.lo, c.hi)
			}()
		}
	}
}

// FuzzAccumulateWeightRows is the differential of
// TestAccumulateWeightRowsMatchesPerRow under fuzzer-chosen geometry,
// windows, row lists, amplitudes, decays and extreme values. The decay is
// a trace decay factor, drawn from [0, 1] with both ends exact, and a NaN
// amp is replaced: a NaN input could put two NaNs of different payloads
// into one add, whose result Go does not define. NaNs the arithmetic makes
// itself (Inf − Inf, 0·Inf) all carry the same payload.
func FuzzAccumulateWeightRows(f *testing.F) {
	f.Add(uint16(1000), uint16(0), uint16(1000), []byte{0, 3, 3, 9, 1, 2, 15, 8, 4}, 0.6, uint16(51040), false, int64(1))
	f.Add(uint16(12), uint16(0), uint16(12), []byte{1, 5}, 0.6, uint16(51040), false, int64(2))
	f.Add(uint16(37), uint16(5), uint16(30), []byte{}, -1.5, uint16(math.MaxUint16), true, int64(3))
	f.Add(uint16(19), uint16(1), uint16(18), []byte{7, 7, 7}, 1e-300, uint16(0), true, int64(4))
	f.Add(uint16(64), uint16(3), uint16(63), []byte{1, 0}, math.Inf(1), uint16(40000), true, int64(5))
	f.Add(uint16(3), uint16(0), uint16(3), []byte{2}, math.MaxFloat64, uint16(1), true, int64(6))
	f.Fuzz(func(t *testing.T, n, lo, hi uint16, rowBytes []byte, amp float64, decayBits uint16, extreme bool, seed int64) {
		if math.IsNaN(amp) {
			amp = 1
		}
		decay := float64(decayBits) / math.MaxUint16
		nn := int(n)%1200 + 1
		l, h := int(lo)%(nn+1), int(hi)%(nn+1)
		if l > h {
			l, h = h, l
		}
		const nRows = 16
		r := rand.New(rand.NewSource(seed))
		g := weightRowsFixture(r, nRows, nn, extreme)
		rows := make([]int, len(rowBytes)%64)
		for i := range rows {
			rows[i] = int(rowBytes[i]) % nRows
		}
		checkWeightRowsMatch(t, g, nn, rows, amp, decay, weightCurrents(r, nn, extreme), l, h)
	})
}

// BenchmarkAccumulateWeightRows times one serve-shaped integrate step on
// the float store — the current decay and 9 spiking rows over a
// 1000-neuron layer — on the per-row Go loop and through
// AccumulateWeightRows.
func BenchmarkAccumulateWeightRows(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	decay := math.Exp(-0.25) // dt 1 ms, tau_syn 4 ms
	g := weightRowsFixture(r, 784, 1000, false)
	rows := []int{12, 87, 150, 151, 300, 402, 555, 610, 777}
	cur := make([]float64, 1000)
	b.Run("per-row", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			AccumulateWeightRowsGo(g, 1000, rows, 0.6, decay, cur, 0, 1000)
		}
	})
	b.Run("blocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			AccumulateWeightRows(g, 1000, rows, 0.6, decay, cur, 0, 1000)
		}
	})
}
