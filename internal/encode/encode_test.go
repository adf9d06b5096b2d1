package encode

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestBandValidate(t *testing.T) {
	if err := BaselineBand().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, b := range []Band{{-1, 10}, {5, 0}, {10, 5}} {
		if b.Validate() == nil {
			t.Errorf("band %+v accepted", b)
		}
	}
}

func TestPaperBands(t *testing.T) {
	if b := BaselineBand(); b.MinHz != 1 || b.MaxHz != 22 {
		t.Errorf("baseline band = %+v, want 1-22 Hz", b)
	}
	if b := HighFrequencyBand(); b.MinHz != 5 || b.MaxHz != 78 {
		t.Errorf("high frequency band = %+v, want 5-78 Hz", b)
	}
}

func TestRateLinearInIntensity(t *testing.T) {
	b := BaselineBand()
	if got := b.Rate(0); got != 1 {
		t.Errorf("Rate(0) = %v, want MinHz", got)
	}
	if got := b.Rate(255); got != 22 {
		t.Errorf("Rate(255) = %v, want MaxHz", got)
	}
	mid := b.Rate(128)
	if mid <= b.Rate(64) || mid >= b.Rate(192) {
		t.Error("Rate not monotone in intensity")
	}
	// Linearity: equal intensity steps give equal rate steps.
	d1 := b.Rate(100) - b.Rate(50)
	d2 := b.Rate(150) - b.Rate(100)
	if math.Abs(d1-d2) > 1e-12 {
		t.Errorf("Rate not linear: %v vs %v", d1, d2)
	}
}

func TestRatesFill(t *testing.T) {
	b := Band{MinHz: 0, MaxHz: 255}
	img := []uint8{0, 128, 255}
	dst := make([]float64, 3)
	b.Rates(img, dst)
	if dst[0] != 0 || dst[2] != 255 || dst[1] != 128 {
		t.Fatalf("Rates = %v", dst)
	}
}

func TestRatesPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dst length mismatch")
		}
	}()
	BaselineBand().Rates([]uint8{1, 2}, make([]float64, 3))
}

func TestNewSourceValidation(t *testing.T) {
	if _, err := NewSource(nil, BaselineBand(), 1, 0); err == nil {
		t.Error("empty image accepted")
	}
	if _, err := NewSource([]uint8{1}, Band{10, 5}, 1, 0); err == nil {
		t.Error("invalid band accepted")
	}
	s, err := NewSource([]uint8{0, 255}, BaselineBand(), 1, 0)
	if err != nil || len(s.rates) != 2 {
		t.Fatalf("NewSource: %v", err)
	}
	if s.rates[0] != 1 || s.rates[1] != 22 {
		t.Fatalf("rates = %v, %v", s.rates[0], s.rates[1])
	}
}

func TestPoissonRateAccuracy(t *testing.T) {
	// A 255-intensity pixel in a 5-78 Hz band should spike ~78 times/s.
	img := []uint8{255, 128, 0}
	s, _ := NewSource(img, HighFrequencyBand(), 99, 0)
	const steps = 200000 // 200 s at dt=1ms
	counts := make([]int, 3)
	var spikes []int
	for step := uint64(0); step < steps; step++ {
		spikes = denseStep(s, step, 1, spikes[:0])
		for _, i := range spikes {
			counts[i]++
		}
	}
	for i := range img {
		want := s.rates[i]
		got := float64(counts[i]) / (steps / 1000.0)
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("pixel %d: measured %v Hz, want %v", i, got, want)
		}
	}
}

func TestPoissonReproducible(t *testing.T) {
	img := []uint8{200, 100}
	a, _ := NewSource(img, BaselineBand(), 7, 3)
	b, _ := NewSource(img, BaselineBand(), 7, 3)
	for step := uint64(0); step < 1000; step++ {
		sa := denseStep(a, step, 1, nil)
		sb := denseStep(b, step, 1, nil)
		if !slices.Equal(sa, sb) {
			t.Fatalf("step %d: %v vs %v", step, sa, sb)
		}
	}
}

func TestPoissonStepOrderIndependent(t *testing.T) {
	// Counter-based draws: one-step plans built in reverse order hold the
	// same spikes as the steps of one forward plan.
	img := []uint8{255}
	s, _ := NewSource(img, HighFrequencyBand(), 5, 1)
	forward := s.BuildPlan(0, 1, 500)
	for step := 499; step >= 0; step-- {
		got := s.BuildPlan(uint64(step), 1, 1).StepView(0)
		if !slices.Equal(got, forward.StepView(step)) {
			t.Fatalf("step %d differs when built in reverse", step)
		}
	}
}

func TestPresentationsDecorrelated(t *testing.T) {
	img := []uint8{255}
	a, _ := NewSource(img, HighFrequencyBand(), 5, 1)
	b, _ := NewSource(img, HighFrequencyBand(), 5, 2)
	same, fires := 0, 0
	for step := uint64(0); step < 5000; step++ {
		fa := len(denseStep(a, step, 1, nil)) > 0
		fb := len(denseStep(b, step, 1, nil)) > 0
		if fa {
			fires++
			if fb {
				same++
			}
		}
	}
	if fires == 0 {
		t.Fatal("no spikes at all")
	}
	// Independence: coincidence rate should be ~rate·dt (=0.078), not ~1.
	if float64(same)/float64(fires) > 0.3 {
		t.Fatalf("presentations correlated: %d/%d coincidences", same, fires)
	}
}

// expectedSpikes returns the expected total spike count of s over a
// presentation of durationMS, summed across all trains.
func expectedSpikes(s *Source, durationMS float64) float64 {
	sum := 0.0
	for _, r := range s.rates {
		sum += r * durationMS / 1000
	}
	return sum
}

func TestExpectedSpikes(t *testing.T) {
	img := []uint8{255, 255}
	s, _ := NewSource(img, Band{MinHz: 0, MaxHz: 10}, 1, 0)
	if got := expectedSpikes(s, 1000); math.Abs(got-20) > 1e-9 {
		t.Fatalf("expected spikes = %v, want 20", got)
	}
}

func TestControls(t *testing.T) {
	base := BaselineControl()
	if base.TLearnMS != 500 || base.Band != BaselineBand() {
		t.Errorf("baseline control = %+v", base)
	}
	hf := HighFrequencyControl()
	if hf.TLearnMS != 100 || hf.Band != HighFrequencyBand() {
		t.Errorf("high frequency control = %+v", hf)
	}
	// The paper's headline: high-frequency mode is 5× less biological time
	// per image.
	if got := hf.SpeedupOver(base); got != 5 {
		t.Errorf("speedup = %v, want 5", got)
	}
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := base
	bad.TLearnMS = 0
	if bad.Validate() == nil {
		t.Error("zero presentation time accepted")
	}
}

func TestWithMaxHz(t *testing.T) {
	c := BaselineControl().WithMaxHz(40)
	if c.Band.MaxHz != 40 || c.Band.MinHz != 1 || c.TLearnMS != 500 {
		t.Fatalf("WithMaxHz = %+v", c)
	}
	// Original unchanged (value semantics).
	if BaselineControl().Band.MaxHz != 22 {
		t.Fatal("WithMaxHz mutated the receiver")
	}
}

// Property: rates always stay inside the band for any intensity.
func TestRateWithinBandProperty(t *testing.T) {
	check := func(minHz, span float64, px uint8) bool {
		b := Band{MinHz: math.Mod(math.Abs(minHz), 50), MaxHz: 0}
		b.MaxHz = b.MinHz + 1 + math.Mod(math.Abs(span), 100)
		r := b.Rate(px)
		return r >= b.MinHz-1e-12 && r <= b.MaxHz+1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: a higher band produces at least as many expected spikes per
// presentation as a lower one for the same image.
func TestBandMonotoneProperty(t *testing.T) {
	img := []uint8{10, 100, 200, 255}
	check := func(boost float64) bool {
		boost = 1 + math.Mod(math.Abs(boost), 5)
		lo := BaselineBand()
		hi := Band{MinHz: lo.MinHz * boost, MaxHz: lo.MaxHz * boost}
		sLo, err1 := NewSource(img, lo, 1, 0)
		sHi, err2 := NewSource(img, hi, 1, 0)
		if err1 != nil || err2 != nil {
			return false
		}
		return expectedSpikes(sHi, 100) >= expectedSpikes(sLo, 100)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPreparedMatchesUnprepared(t *testing.T) {
	img := []uint8{0, 30, 100, 200, 255}
	a, _ := NewSource(img, HighFrequencyBand(), 17, 5)
	b, _ := NewSource(img, HighFrequencyBand(), 17, 5)
	b.Prepare(1)
	pa, pb := a.BuildPlan(0, 1, 2000), b.BuildPlan(0, 1, 2000)
	for step := 0; step < 2000; step++ {
		want := denseStep(a, uint64(step), 1, nil)
		if !slices.Equal(pa.Step(step, nil), want) || !slices.Equal(pb.Step(step, nil), want) {
			t.Fatalf("step %d: unprepared %v, prepared %v, dense %v", step, pa.StepView(step), pb.StepView(step), want)
		}
	}
}

func TestPrepareRefreshOnDTChange(t *testing.T) {
	img := []uint8{255}
	s, _ := NewSource(img, Band{MinHz: 0, MaxHz: 1000}, 3, 0)
	s.Prepare(1)
	// A plan at a different dt must not use the stale thresholds:
	// p = 1000 Hz × 0.1 ms = 0.1 → ~10% spike rate, not ~100%.
	p := s.BuildPlan(0, 0.1, 10000)
	rate := float64(len(p.spikes)) / 10000
	if rate > 0.15 {
		t.Fatalf("stale thresholds used after dt change: fire rate %v", rate)
	}
}

func TestPoissonSaturatedProbability(t *testing.T) {
	// rate·dt ≥ 1: the train must spike every step.
	img := []uint8{255}
	s, _ := NewSource(img, Band{MinHz: 0, MaxHz: 2000}, 3, 0)
	p := s.BuildPlan(0, 1, 100)
	for step := 0; step < 100; step++ {
		if len(p.StepView(step)) != 1 {
			t.Fatalf("saturated train skipped step %d", step)
		}
	}
}

func TestRebindMatchesFreshSource(t *testing.T) {
	// A rebound source must build exactly the plan of a source freshly
	// built for the same (image, band, presentation) — including after a
	// Prepare on the old image, which must not leak its stale active set
	// into the new one.
	band := BaselineBand()
	imgA := make([]uint8, 64)
	imgB := make([]uint8, 64)
	for i := range imgA {
		imgA[i] = uint8(i * 4)
		imgB[i] = uint8(255 - i*3)
	}
	const dt = 1.0
	src, err := NewSource(imgA, band, 42, 7)
	if err != nil {
		t.Fatal(err)
	}
	src.Prepare(dt)
	if err := src.Rebind(imgB, band, 19); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSource(imgB, band, 42, 19)
	if err != nil {
		t.Fatal(err)
	}
	comparePlan(t, "rebound", src.BuildPlan(0, dt, 200), densePlan(fresh, 0, dt, 200))
}

func TestRebindWithoutPrepareIsCorrect(t *testing.T) {
	// A build after Rebind at the dt the old image was Prepared for must
	// refresh the active set from the fresh rates, never reuse the stale one.
	img := make([]uint8, 32)
	hot := make([]uint8, 32)
	for i := range hot {
		hot[i] = 255
	}
	band := Band{MinHz: 1000, MaxHz: 1000} // rate*dt/1000 = 1 → certain spike
	src, err := NewSource(img, Band{MinHz: 0, MaxHz: 0.001}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	src.Prepare(1)
	if err := src.Rebind(hot, band, 0); err != nil {
		t.Fatal(err)
	}
	if got := len(src.BuildPlan(0, 1, 1).spikes); got != len(hot) {
		t.Fatalf("rebound source fired %d trains, want all %d (stale thresholds leaked)", got, len(hot))
	}
}

func TestRebindRejectsBadInputs(t *testing.T) {
	img := make([]uint8, 16)
	src, err := NewSource(img, BaselineBand(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Rebind(make([]uint8, 17), BaselineBand(), 0); err == nil {
		t.Error("size-mismatched rebind accepted")
	}
	if err := src.Rebind(img, Band{MinHz: 10, MaxHz: 5}, 0); err == nil {
		t.Error("invalid band accepted")
	}
}
