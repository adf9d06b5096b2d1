package encode

import (
	"math"
	"testing"
	"testing/quick"
)

// Property: Rate is monotone nondecreasing in pixel intensity for any valid
// band — brighter ink never spikes slower.
func TestRateMonotoneInIntensity(t *testing.T) {
	check := func(minHz, span float64, a, b uint8) bool {
		band := Band{MinHz: math.Mod(math.Abs(minHz), 50)}
		band.MaxHz = band.MinHz + math.Mod(math.Abs(span), 100)
		if a > b {
			a, b = b, a
		}
		return band.Rate(a) <= band.Rate(b)+1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the band edges are hit exactly — intensity 0 maps to MinHz and
// 255 to MaxHz, for any band.
func TestRateEdgesExact(t *testing.T) {
	check := func(minHz, span float64) bool {
		band := Band{MinHz: math.Mod(math.Abs(minHz), 50)}
		band.MaxHz = band.MinHz + math.Mod(math.Abs(span), 100)
		return band.Rate(0) == band.MinHz && band.Rate(255) == band.MaxHz
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Rates agrees with Rate element-wise on arbitrary images.
func TestRatesMatchesRate(t *testing.T) {
	check := func(img []uint8) bool {
		if len(img) == 0 {
			return true
		}
		b := BaselineBand()
		dst := make([]float64, len(img))
		b.Rates(img, dst)
		for i, px := range img {
			if dst[i] != b.Rate(px) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: poissonThreshold is monotone nondecreasing in the probability —
// a likelier spike never gets a smaller hash acceptance region.
func TestPoissonThresholdMonotone(t *testing.T) {
	check := func(a, b float64) bool {
		pa := math.Mod(math.Abs(a), 1.5) - 0.25 // cover <0, [0,1] and >1
		pb := math.Mod(math.Abs(b), 1.5) - 0.25
		if pa > pb {
			pa, pb = pb, pa
		}
		return poissonThreshold(pa) <= poissonThreshold(pb)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestPoissonThresholdSaturation(t *testing.T) {
	cases := []struct {
		p    float64
		want uint64
	}{
		{-1, 0},
		{0, 0},
		{1, ^uint64(0)},
		{1.5, ^uint64(0)},
		{math.Inf(1), ^uint64(0)},
	}
	for _, c := range cases {
		if got := poissonThreshold(c.p); got != c.want {
			t.Fatalf("poissonThreshold(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	// p = 0.5 splits the hash space in half (within float rounding of 2⁻⁶⁴).
	if got := poissonThreshold(0.5); got != 1<<63 {
		t.Fatalf("poissonThreshold(0.5) = %d, want %d", got, uint64(1)<<63)
	}
}

// Property: the acceptance fraction the threshold realizes matches the
// requested probability to within float rounding for in-range p.
func TestPoissonThresholdFraction(t *testing.T) {
	check := func(raw float64) bool {
		p := math.Mod(math.Abs(raw), 1)
		thr := poissonThreshold(p)
		frac := float64(thr) / math.Pow(2, 64)
		return math.Abs(frac-p) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: zero-intensity pixels under a MinHz=0 band never spike — the
// threshold degenerates to the empty acceptance region, not a tiny one.
func TestZeroRateNeverSpikesPoisson(t *testing.T) {
	img := []uint8{0, 0, 0}
	s, err := NewSource(img, Band{MinHz: 0, MaxHz: 40}, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.BuildPlan(0, 1, 5000).spikes); got != 0 {
		t.Fatalf("zero-rate trains spiked %d times", got)
	}
}
