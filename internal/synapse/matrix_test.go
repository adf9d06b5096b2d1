package synapse

import (
	"math"
	"testing"

	"parallelspikesim/internal/fixed"
	"parallelspikesim/internal/rng"
)

// matrixFormats covers both stores: every packable width plus the float
// fallback.
var matrixFormats = []fixed.Format{fixed.Q0p2, fixed.Q0p4, fixed.Q1p7, fixed.Q1p15, fixed.Float32}

func TestNewMatrixStoreSelection(t *testing.T) {
	for _, f := range matrixFormats {
		m, err := NewMatrix(3, 5, f)
		if err != nil {
			t.Fatal(err)
		}
		if m.Packed() != f.Packable() {
			t.Errorf("%s: Packed() = %v, Packable() = %v", f, m.Packed(), f.Packable())
		}
		if m.Len() != 15 {
			t.Errorf("%s: Len() = %d", f, m.Len())
		}
	}
	if _, err := NewMatrix(0, 5, fixed.Q1p7); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := NewMatrix(3, -1, fixed.Float32); err == nil {
		t.Error("negative columns accepted")
	}
}

// TestMatrixAccessorsAgree pins the sealed read API to itself on every
// store: At, ForEachRow, Weights and Column must all report the same
// conductances.
func TestMatrixAccessorsAgree(t *testing.T) {
	const nPre, nPost = 5, 7 // nPost deliberately straddles lane boundaries
	for _, f := range matrixFormats {
		m, err := NewMatrix(nPre, nPost, f)
		if err != nil {
			t.Fatal(err)
		}
		m.InitUniform(rng.NewStream(9), 0.1, 0.9)

		w := m.Weights()
		if len(w) != m.Len() {
			t.Fatalf("%s: Weights length %d", f, len(w))
		}
		m.ForEachRow(func(pre int, row []fixed.Weight) {
			for post, g := range row {
				if got := m.At(pre, post); got != g {
					t.Fatalf("%s: At(%d,%d) = %v, ForEachRow saw %v", f, pre, post, got, g)
				}
				if w[pre*nPost+post] != g {
					t.Fatalf("%s: Weights[%d,%d] = %v, want %v", f, pre, post, w[pre*nPost+post], g)
				}
			}
		})
		col := make([]float64, nPre)
		for post := 0; post < nPost; post++ {
			m.Column(post, col)
			for pre, g := range col {
				if float64(m.At(pre, post)) != g {
					t.Fatalf("%s: Column(%d)[%d] = %v, At %v", f, post, pre, g, m.At(pre, post))
				}
			}
		}
	}
}

func TestMatrixSetClampsAndFills(t *testing.T) {
	for _, f := range matrixFormats {
		m, err := NewMatrix(2, 3, f)
		if err != nil {
			t.Fatal(err)
		}
		m.Set(1, 2, 0.7)
		want := f.QuantizeWeight(0.7, fixed.Nearest, 0)
		if got := m.At(1, 2); got != want {
			t.Errorf("%s: Set(0.7) read back %v, want %v", f, got, want)
		}
		if !f.Float { // float formats have no ceiling to clamp into
			m.Set(0, 0, 99)
			if got := m.At(0, 0); float64(got) != f.Max() {
				t.Errorf("%s: Set(99) read back %v, want max %v", f, got, f.Max())
			}
		}
		m.Fill(0.25)
		q := f.QuantizeWeight(0.25, fixed.Nearest, 0)
		for _, g := range m.Weights() {
			if g != q {
				t.Fatalf("%s: Fill left %v, want %v", f, g, q)
			}
		}
	}
}

func TestRowCodesAliasesPackedStore(t *testing.T) {
	m, err := NewMatrix(3, 5, fixed.Q1p7)
	if err != nil {
		t.Fatal(err)
	}
	pk := m.packing()
	codes := m.RowCodes(2)
	if codes == nil {
		t.Fatal("RowCodes nil on packed store")
	}
	m.SetWeight(2, 3, fixed.Weight(fixed.Q1p7.Step()*17))
	if got := pk.Get(codes, 3); got != 17 {
		t.Fatalf("RowCodes did not alias the store: code %d, want 17", got)
	}
	// Padding lanes beyond NPost stay zero.
	for i := m.NPost; i < pk.WordsFor(m.NPost)*pk.Lanes(); i++ {
		if pk.Get(codes, i) != 0 {
			t.Fatalf("padding lane %d nonzero", i)
		}
	}

	fm, err := NewMatrix(3, 5, fixed.Float32)
	if err != nil {
		t.Fatal(err)
	}
	if fm.RowCodes(0) != nil {
		t.Fatal("RowCodes non-nil on fallback store")
	}
}

func TestMatrixCloneIsDeep(t *testing.T) {
	for _, f := range []fixed.Format{fixed.Q1p7, fixed.Float32} {
		m, err := NewMatrix(4, 6, f)
		if err != nil {
			t.Fatal(err)
		}
		m.InitUniform(rng.NewStream(3), 0.2, 0.8)
		c := m.Clone()
		before := c.At(1, 1)
		m.Set(1, 1, 0)
		if c.At(1, 1) != before {
			t.Errorf("%s: clone shares storage with the original", f)
		}
	}
}

// TestAccumulateSpikesRangeMatchesAt: the multi-row integrate entry is
// bit-identical to a decay pass (a clear at decay 0) followed by summing
// At(pre, i)·amp row by row in pres order, on the packed stores and the
// float fallback, for post counts that are not a multiple of any lane
// count, unaligned windows and empty or duplicate spike lists.
func TestAccumulateSpikesRangeMatchesAt(t *testing.T) {
	const nPre, amp = 7, 0.6
	for _, f := range matrixFormats {
		for _, nPost := range []int{11, 37, 1000} {
			m, err := NewMatrix(nPre, nPost, f)
			if err != nil {
				t.Fatal(err)
			}
			m.InitUniform(rng.NewStream(5), 0, 1)
			spans := [][2]int{{0, nPost}, {3, 9}, {5, 5}, {1, nPost - 2}, {nPost / 3, 2 * nPost / 3}}
			for _, pres := range [][]int{nil, {4}, {0, 2, 2, 6}, {6, 5, 4, 3, 2, 1, 0, 1, 3}} {
				for _, span := range spans {
					for _, decay := range []float64{1, 0, math.Exp(-0.25)} {
						lo, hi := span[0], span[1]
						got := make([]float64, nPost)
						want := make([]float64, nPost)
						for i := range got {
							got[i] = float64(i) * 0.01
							want[i] = got[i]
						}
						m.AccumulateSpikesRange(pres, amp, decay, got, lo, hi)
						for i := lo; i < hi; i++ {
							want[i] *= decay
						}
						for _, pre := range pres {
							for i := lo; i < hi; i++ {
								want[i] += float64(float64(m.At(pre, i)) * amp)
							}
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s nPost=%d pres=%v [%d,%d) decay=%v: current[%d] = %v, want %v",
									f, nPost, pres, lo, hi, decay, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

func TestMatrixStats(t *testing.T) {
	for _, f := range []fixed.Format{fixed.Q1p7, fixed.Float32} {
		m, err := NewMatrix(2, 4, f)
		if err != nil {
			t.Fatal(err)
		}
		m.Fill(0.5)
		m.Set(0, 0, 0)
		m.Set(1, 3, 1)
		minG, maxG, mean := m.Stats()
		if minG != 0 || maxG != 1 {
			t.Errorf("%s: min/max %v/%v", f, minG, maxG)
		}
		if mean <= 0 || mean >= 1 {
			t.Errorf("%s: mean %v out of range", f, mean)
		}
	}
}
