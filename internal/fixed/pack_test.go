package fixed

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// packableFormats are every format the packed store supports, spanning the
// lane widths (32, 16, 8 and 4 lanes per word).
var packableFormats = []Format{Q0p2, Q0p4, Q1p7, Q1p15}

func mustPacking(t testing.TB, f Format) *Packing {
	t.Helper()
	p, err := f.Packing()
	if err != nil {
		t.Fatalf("Packing(%s): %v", f, err)
	}
	return p
}

func TestPackable(t *testing.T) {
	cases := []struct {
		f    Format
		want bool
	}{
		{Q0p2, true},
		{Q0p4, true},
		{Q1p7, true},
		{Q1p15, true},
		{Float32, false},
		{Format{IntBits: 1, FracBits: 2}, false},  // 3 bits: 64%3 != 0
		{Format{IntBits: 2, FracBits: 3}, false},  // 5 bits
		{Format{IntBits: 0, FracBits: 1}, false},  // 1 bit: no MSB/low split
		{Format{IntBits: 10, FracBits: 22}, true}, // 32 bits divides 64
	}
	for _, c := range cases {
		if got := c.f.Packable(); got != c.want {
			t.Errorf("%s.Packable() = %v, want %v", c.f, got, c.want)
		}
	}
	if _, err := Float32.Packing(); err == nil {
		t.Error("Packing() on float format: want error")
	}
	if _, err := (Format{IntBits: 1, FracBits: 2}).Packing(); err == nil {
		t.Error("Packing() on 3-bit format: want error")
	}
}

func TestPackingGeometry(t *testing.T) {
	for _, f := range packableFormats {
		p := mustPacking(t, f)
		if p.Lanes()*p.Width() != 64 {
			t.Errorf("%s: lanes %d × width %d != 64", f, p.Lanes(), p.Width())
		}
		if p.WordsFor(0) != 0 {
			t.Errorf("%s: WordsFor(0) = %d", f, p.WordsFor(0))
		}
		for _, n := range []int{1, p.Lanes() - 1, p.Lanes(), p.Lanes() + 1, 3*p.Lanes() + 2} {
			want := (n + p.Lanes() - 1) / p.Lanes()
			if got := p.WordsFor(n); got != want {
				t.Errorf("%s: WordsFor(%d) = %d, want %d", f, n, got, want)
			}
		}
	}
}

// TestValueMatchesFromCode pins the bit-identity cornerstone: the LUT (or
// arithmetic) dequantization equals Format.FromCode for every code — the
// packed store reads back the exact float64 the Weight store held.
func TestValueMatchesFromCode(t *testing.T) {
	for _, f := range packableFormats {
		p := mustPacking(t, f)
		maxCode := uint32(f.Levels() - 1)
		stride := uint32(1)
		if maxCode > 1<<12 {
			stride = 7 // sample the 16-bit space; the identity is exact everywhere
		}
		for c := uint32(0); ; c += stride {
			if got, want := p.Value(c), f.FromCode(c); got != want {
				t.Fatalf("%s: Value(%d) = %v, FromCode = %v", f, c, got, want)
			}
			if back := p.CodeOf(Weight(f.FromCode(c))); back != c {
				t.Fatalf("%s: CodeOf(Value(%d)) = %d", f, c, back)
			}
			if c >= maxCode-stride {
				break
			}
		}
	}
}

// TestPackUnpackRoundTrip: Pack then Unpack (and lane-wise Get) recovers
// every code, including at non-word-multiple lengths.
func TestPackUnpackRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(0x9acc))
	for _, f := range packableFormats {
		p := mustPacking(t, f)
		for _, n := range []int{1, p.Lanes() - 1, p.Lanes(), p.Lanes() + 1, 5*p.Lanes() + 3} {
			codes := make([]uint32, n)
			for i := range codes {
				codes[i] = uint32(r.Intn(f.Levels()))
			}
			words := p.Pack(codes)
			if len(words) != p.WordsFor(n) {
				t.Fatalf("%s n=%d: %d words, want %d", f, n, len(words), p.WordsFor(n))
			}
			back := p.Unpack(words, n, nil)
			for i := range codes {
				if back[i] != codes[i] {
					t.Fatalf("%s n=%d: unpack[%d] = %d, want %d", f, n, i, back[i], codes[i])
				}
				if g := p.Get(words, i); g != codes[i] {
					t.Fatalf("%s n=%d: Get(%d) = %d, want %d", f, n, i, g, codes[i])
				}
			}
		}
	}
}

// TestSetIsolatesLane: Set writes one lane without disturbing neighbors.
func TestSetIsolatesLane(t *testing.T) {
	r := rand.New(rand.NewSource(0x5e71))
	for _, f := range packableFormats {
		p := mustPacking(t, f)
		n := 2*p.Lanes() + 1
		codes := make([]uint32, n)
		for i := range codes {
			codes[i] = uint32(r.Intn(f.Levels()))
		}
		words := p.Pack(codes)
		for trial := 0; trial < 200; trial++ {
			i := r.Intn(n)
			c := uint32(r.Intn(f.Levels()))
			p.Set(words, i, c)
			codes[i] = c
			for j := range codes {
				if got := p.Get(words, j); got != codes[j] {
					t.Fatalf("%s: after Set(%d,%d), Get(%d) = %d, want %d", f, i, c, j, got, codes[j])
				}
			}
		}
	}
}

// scalarAddSat is the per-weight reference the word kernel must match: the
// real Format.AddSat applied with the flat one-step update, mapped back to
// the code domain. Exercised across all three roundings to pin the
// residue==0 early return (the roll must be irrelevant for on-grid flat
// steps).
func scalarAddSat(f Format, c, ceil uint32, mode Rounding, roll float64) uint32 {
	g := f.AddSat(Weight(f.FromCode(c)), f.Step(), f.FromCode(ceil), mode, roll)
	return f.ToCode(float64(g) + f.Step()/4)
}

func scalarSubSat(f Format, c, floor uint32, mode Rounding, roll float64) uint32 {
	g := f.SubSat(Weight(f.FromCode(c)), f.Step(), f.FromCode(floor), mode, roll)
	return f.ToCode(float64(g) + f.Step()/4)
}

// TestAddSatMaskedMatchesScalar / TestSubSatMaskedMatchesScalar: quick.Check
// property — for random lane codes, random select masks and random bounds,
// the word-parallel saturating step equals the scalar AddSat/SubSat
// reference on every selected lane and leaves every unselected lane
// untouched, across all roundings and lane-boundary positions.
func TestAddSatMaskedMatchesScalar(t *testing.T) {
	testSatMaskedMatchesScalar(t, true)
}

func TestSubSatMaskedMatchesScalar(t *testing.T) {
	testSatMaskedMatchesScalar(t, false)
}

func testSatMaskedMatchesScalar(t *testing.T, pot bool) {
	for _, f := range packableFormats {
		f := f
		p := mustPacking(t, f)
		prop := func(seed int64, rawBound uint16, modeRaw uint8, roll float64) bool {
			r := rand.New(rand.NewSource(seed))
			mode := Rounding(modeRaw % 3)
			roll = math.Abs(roll)
			roll -= math.Floor(roll) // uniform-ish in [0,1)
			bound := uint32(rawBound) % uint32(f.Levels())
			n := p.Lanes()*3 + r.Intn(p.Lanes()) // straddle word boundaries
			codes := make([]uint32, n)
			for i := range codes {
				// Bias toward the bound so saturation paths are hit often.
				if r.Intn(3) == 0 {
					codes[i] = bound
				} else {
					codes[i] = uint32(r.Intn(f.Levels()))
				}
			}
			words := p.Pack(codes)
			sel := p.NewSelect(n)
			selected := make([]bool, n)
			for i := range selected {
				if r.Intn(2) == 0 {
					selected[i] = true
					p.SetLane(sel, i)
				}
			}
			if pot {
				p.AddSatMasked(words, sel, bound)
			} else {
				p.SubSatMasked(words, sel, bound)
			}
			for i, c := range codes {
				want := c
				if selected[i] {
					if pot {
						want = scalarAddSat(f, c, bound, mode, roll)
					} else {
						want = scalarSubSat(f, c, bound, mode, roll)
					}
				}
				if got := p.Get(words, i); got != want {
					t.Logf("%s pot=%v lane %d: code %d bound %d sel %v: got %d want %d",
						f, pot, i, c, bound, selected[i], got, want)
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}

// TestIncDecSatMatchScalar: the single-lane saturating ops equal the scalar
// reference and do not disturb neighboring lanes.
func TestIncDecSatMatchScalar(t *testing.T) {
	r := rand.New(rand.NewSource(0x1dec))
	for _, f := range packableFormats {
		p := mustPacking(t, f)
		n := 2 * p.Lanes()
		for trial := 0; trial < 300; trial++ {
			bound := uint32(r.Intn(f.Levels()))
			codes := make([]uint32, n)
			for i := range codes {
				codes[i] = uint32(r.Intn(f.Levels()))
			}
			words := p.Pack(codes)
			i := r.Intn(n)
			var got, want uint32
			if trial%2 == 0 {
				got = p.IncSat(words, i, bound)
				want = scalarAddSat(f, codes[i], bound, Truncate, 0)
			} else {
				got = p.DecSat(words, i, bound)
				want = scalarSubSat(f, codes[i], bound, Truncate, 0)
			}
			if got != want {
				t.Fatalf("%s trial %d lane %d: got %d want %d", f, trial, i, got, want)
			}
			codes[i] = want
			for j := range codes {
				if g := p.Get(words, j); g != codes[j] {
					t.Fatalf("%s trial %d: lane %d disturbed: %d want %d", f, trial, j, g, codes[j])
				}
			}
		}
	}
}

// TestAccumulateRangeMatchesScalar: the word-walk accumulation is
// bit-identical (not merely close) to the scalar per-weight loop, for
// arbitrary [lo, hi) windows including word-interior boundaries.
func TestAccumulateRangeMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(0xacc0))
	for _, f := range packableFormats {
		p := mustPacking(t, f)
		n := 4*p.Lanes() + 3
		codes := make([]uint32, n)
		weights := make([]Weight, n)
		for i := range codes {
			codes[i] = uint32(r.Intn(f.Levels()))
			weights[i] = Weight(f.FromCode(codes[i]))
		}
		words := p.Pack(codes)
		for trial := 0; trial < 100; trial++ {
			lo := r.Intn(n)
			hi := lo + r.Intn(n-lo) + 1
			amp := r.NormFloat64() * 3
			got := make([]float64, n)
			want := make([]float64, n)
			for i := range got {
				got[i] = r.NormFloat64()
				want[i] = got[i]
			}
			p.AccumulateRange(words, amp, got, lo, hi)
			for i := lo; i < hi; i++ {
				want[i] += float64(weights[i]) * amp
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s [%d,%d): cur[%d] = %v, want %v (bit-exact)", f, lo, hi, i, got[i], want[i])
				}
			}
		}
	}
}

// TestLaneArithmetic white-boxes the carry-fence primitives: per-lane
// add/sub modulo 2^width and the unsigned ≥ compare, against the obvious
// scalar loop, for dense random words.
func TestLaneArithmetic(t *testing.T) {
	r := rand.New(rand.NewSource(0xfe2ce))
	for _, f := range packableFormats {
		p := mustPacking(t, f)
		mask := uint64(p.laneMask)
		for trial := 0; trial < 500; trial++ {
			x := Word(r.Uint64())
			y := Word(r.Uint64())
			add := p.laneAdd(x, y)
			sub := p.laneSub(x, y)
			ge := p.lanesGE(x, y)
			for lane := 0; lane < p.lanes; lane++ {
				sh := uint(lane) * p.width
				xl := uint64(x>>sh) & mask
				yl := uint64(y>>sh) & mask
				if got, want := uint64(add>>sh)&mask, (xl+yl)&mask; got != want {
					t.Fatalf("%s laneAdd lane %d: %d+%d = %d, want %d", f, lane, xl, yl, got, want)
				}
				if got, want := uint64(sub>>sh)&mask, (xl-yl)&mask; got != want {
					t.Fatalf("%s laneSub lane %d: %d-%d = %d, want %d", f, lane, xl, yl, got, want)
				}
				gotGE := uint64(ge>>sh)&mask == mask
				if gl := uint64(ge>>sh) & mask; gl != 0 && gl != mask {
					t.Fatalf("%s lanesGE lane %d: partial mask %x", f, lane, gl)
				}
				if wantGE := xl >= yl; gotGE != wantGE {
					t.Fatalf("%s lanesGE lane %d: %d>=%d = %v, want %v", f, lane, xl, yl, gotGE, wantGE)
				}
			}
		}
	}
}

// FuzzPackRoundTrip: arbitrary byte soup → codes → pack → unpack must be the
// identity for every packable format.
func FuzzPackRoundTrip(f *testing.F) {
	f.Add([]byte{0x00}, uint8(0))
	f.Add([]byte{0xff, 0x01, 0x80, 0x7f}, uint8(1))
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03}, uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, fmtSel uint8) {
		format := packableFormats[int(fmtSel)%len(packableFormats)]
		p, err := format.Packing()
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) == 0 {
			return
		}
		codes := make([]uint32, len(raw))
		for i, b := range raw {
			codes[i] = (uint32(b) * 259) % uint32(format.Levels())
		}
		words := p.Pack(codes)
		back := p.Unpack(words, len(codes), nil)
		if len(back) != len(codes) {
			t.Fatalf("unpack length %d, want %d", len(back), len(codes))
		}
		for i := range codes {
			if back[i] != codes[i] {
				t.Fatalf("%s: lane %d: %d -> %d", format, i, codes[i], back[i])
			}
			if p.Get(words, i) != codes[i] {
				t.Fatalf("%s: Get(%d) != packed code", format, i)
			}
		}
		// Round-trip through the value domain must also be exact.
		for i := range codes {
			if c := p.CodeOf(Weight(p.Value(codes[i]))); c != codes[i] {
				t.Fatalf("%s: value round-trip lane %d: %d -> %d", format, i, codes[i], c)
			}
		}
	})
}
