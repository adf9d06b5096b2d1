package encode

import (
	"math"
	"testing"
	"testing/quick"

	"parallelspikesim/internal/rng"
)

// denseStep is the reference Poisson scan, the test oracle for the plan
// builder: it appends the pixels spiking on global step `step` of width dt
// ms, deciding every pixel with the full keyed Hash64 against a threshold
// computed from its rate on the spot. It shares nothing with the builder
// but poissonThreshold and the source's rates and seed.
func denseStep(s *Source, step uint64, dt float64, dst []int) []int {
	for i, rate := range s.rates {
		thr := poissonThreshold(rate * dt / 1000)
		if thr != 0 && rng.Hash64(s.presSeed, step, uint64(i)) < thr {
			dst = append(dst, i)
		}
	}
	return dst
}

// densePlan materializes a presentation the reference way: one denseStep
// scan per step. The differential wall in this file holds the sparse
// builder to its output bit for bit.
func densePlan(s *Source, startStep uint64, dt float64, steps int) [][]int {
	out := make([][]int, steps)
	for i := 0; i < steps; i++ {
		out[i] = denseStep(s, startStep+uint64(i), dt, nil)
	}
	return out
}

func comparePlan(t *testing.T, label string, p *Plan, want [][]int) {
	t.Helper()
	if p.Steps() != len(want) {
		t.Fatalf("%s: plan covers %d steps, want %d", label, p.Steps(), len(want))
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("%s: built plan fails validation: %v", label, err)
	}
	total := 0
	for st, wantRow := range want {
		got := p.Step(st, nil)
		total += len(wantRow)
		if len(got) != len(wantRow) {
			t.Fatalf("%s step %d: sparse %v, dense %v", label, st, got, wantRow)
		}
		for i := range got {
			if got[i] != wantRow[i] {
				t.Fatalf("%s step %d: sparse %v, dense %v", label, st, got, wantRow)
			}
		}
		// The zero-copy view must tell the same story.
		view := p.StepView(st)
		for i, px := range view {
			if int(px) != wantRow[i] {
				t.Fatalf("%s step %d: StepView %v, dense %v", label, st, view, wantRow)
			}
		}
	}
	if len(p.spikes) != total {
		t.Fatalf("%s: plan holds %d spikes, dense emitted %d", label, len(p.spikes), total)
	}
}

// gradientImage covers silent, dim and saturated pixels so band-edge rates
// (MinHz at intensity 0, MaxHz at 255) are all exercised.
func gradientImage(n int) []uint8 {
	img := make([]uint8, n)
	for i := range img {
		switch i % 4 {
		case 0:
			img[i] = 0
		case 1:
			img[i] = 255
		default:
			img[i] = uint8(i * 13)
		}
	}
	return img
}

// TestSparseMatchesDense is the deterministic core of the differential
// wall: every (band, dt, seed, start step) cell, including the band-edge
// rates 0 Hz (MinHz=0 background), 5 Hz and 78 Hz (the paper's
// high-frequency band edges), must produce identical spike sets through the
// event-driven builder and the dense scan.
func TestSparseMatchesDense(t *testing.T) {
	img := gradientImage(97)
	bands := []Band{
		{MinHz: 0, MaxHz: 40},   // 0 Hz edge: background pixels never spike
		{MinHz: 5, MaxHz: 78},   // high-frequency band edges
		{MinHz: 1, MaxHz: 22},   // baseline band
		{MinHz: 0, MaxHz: 1000}, // saturating rates: spike every step
	}
	for _, band := range bands {
		for _, dt := range []float64{1, 0.5, 0.1} {
			for _, start := range []uint64{0, 1, 12345, 1 << 32} {
				seed := uint64(0xabcd) ^ start
				src, err := NewSource(img, band, seed, start)
				if err != nil {
					t.Fatal(err)
				}
				steps := 120
				p := src.BuildPlan(start, dt, steps)
				label := band.labelForTest() + " dt=" + floatLabel(dt) + " start=" + uintLabel(start)
				comparePlan(t, label, p, densePlan(src, start, dt, steps))
			}
		}
	}
}

func (b Band) labelForTest() string { return floatLabel(b.MinHz) + "-" + floatLabel(b.MaxHz) + "Hz" }

func floatLabel(f float64) string {
	if f == math.Trunc(f) {
		return uintLabel(uint64(f))
	}
	return "~" + uintLabel(uint64(f*1000)) + "m"
}

func uintLabel(u uint64) string {
	if u == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for u > 0 {
		i--
		buf[i] = byte('0' + u%10)
		u /= 10
	}
	return string(buf[i:])
}

// Property wall: random (band, rate spread, dt, seed, presentation)
// combinations — quick.Check drives the corners no table anticipates.
func TestSparseMatchesDenseProperty(t *testing.T) {
	check := func(seed, pres uint64, minRaw, spanRaw, dtRaw float64, imgSeed uint8) bool {
		band := Band{MinHz: math.Mod(math.Abs(minRaw), 50)}
		band.MaxHz = band.MinHz + math.Mod(math.Abs(spanRaw), 100)
		if band.MaxHz == 0 {
			band.MaxHz = 1
		}
		dt := 0.05 + math.Mod(math.Abs(dtRaw), 2)
		img := make([]uint8, 61)
		for i := range img {
			img[i] = uint8(int(imgSeed)*31+i*7) % 255
		}
		img[0], img[1] = 0, 255
		src, err := NewSource(img, band, seed, pres)
		if err != nil {
			return false
		}
		const steps = 64
		p := src.BuildPlan(pres, dt, steps)
		if p.Validate() != nil {
			return false
		}
		var buf []int
		for st := 0; st < steps; st++ {
			want := denseStep(src, pres+uint64(st), dt, nil)
			buf = p.Step(st, buf[:0])
			if len(buf) != len(want) {
				return false
			}
			for i := range buf {
				if buf[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// BuildPlanInto must be a pure function of its inputs regardless of what the
// recycled plan previously held — a reused buffer from a bigger or smaller
// build must leave no residue.
func TestBuildPlanIntoReuseBitIdentical(t *testing.T) {
	band := HighFrequencyBand()
	imgA := gradientImage(80)
	imgB := gradientImage(80)
	for i := range imgB {
		imgB[i] = 255 - imgB[i]
	}
	src, err := NewSource(imgA, band, 77, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Seed the recycled plan with a larger presentation so every buffer
	// carries stale content into the rebuild.
	p := src.BuildPlan(0, 1, 300)
	if err := src.Rebind(imgB, band, 4242); err != nil {
		t.Fatal(err)
	}
	p = src.BuildPlanInto(p, 4242, 0.5, 150)

	fresh, err := NewSource(imgB, band, 77, 4242)
	if err != nil {
		t.Fatal(err)
	}
	comparePlan(t, "reuse", p, densePlan(fresh, 4242, 0.5, 150))
}

// BuildPlanInto self-prepares: a source that was never Prepared (or was
// Prepared for a different dt) must build the same plan as a prepared one.
func TestBuildPlanSelfPrepares(t *testing.T) {
	img := gradientImage(40)
	band := BaselineBand()
	cold, err := NewSource(img, band, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := NewSource(img, band, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	stale.Prepare(2) // wrong dt: must be refreshed, not trusted
	ref, err := NewSource(img, band, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := densePlan(ref, 3, 0.5, 100)
	comparePlan(t, "cold", cold.BuildPlan(3, 0.5, 100), want)
	comparePlan(t, "stale-dt", stale.BuildPlan(3, 0.5, 100), want)
}

// Zero-step plans are legal (a degenerate control could yield them) and must
// be empty, valid and safe to query.
func TestBuildPlanZeroSteps(t *testing.T) {
	src, err := NewSource(gradientImage(8), BaselineBand(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := src.BuildPlan(0, 1, 0)
	if p.Steps() != 0 || len(p.spikes) != 0 {
		t.Fatalf("zero-step plan: %d steps, %d spikes", p.Steps(), len(p.spikes))
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Validate must reject every class of malformed plan: simcheck builds
// assert it on every chunk the step core replays.
func TestValidateRejectsMalformedPlans(t *testing.T) {
	cases := []struct {
		name      string
		numTrains int
		offsets   []int
		spikes    []int32
	}{
		{"no offsets", 4, nil, nil},
		{"zero trains", 0, []int{0}, nil},
		{"negative trains", -3, []int{0}, nil},
		{"nonzero first offset", 4, []int{1, 2}, []int32{0, 1}},
		{"negative offset", 4, []int{0, -2, 2}, []int32{0, 1}},
		{"descending offsets", 4, []int{0, 2, 1}, []int32{0, 1}},
		{"offset past payload", 4, []int{0, 3}, []int32{0, 1}},
		{"truncated payload", 4, []int{0, 1}, nil},
		{"trailing spikes uncovered", 4, []int{0, 1}, []int32{0, 1, 2}},
		{"pixel out of range", 4, []int{0, 1}, []int32{4}},
		{"negative pixel", 4, []int{0, 1}, []int32{-1}},
		{"descending pixels in step", 4, []int{0, 2}, []int32{2, 1}},
		{"duplicate pixel in step", 4, []int{0, 2}, []int32{1, 1}},
	}
	for _, c := range cases {
		p := &Plan{numTrains: c.numTrains, offsets: c.offsets, spikes: c.spikes}
		if p.Validate() == nil {
			t.Errorf("%s: malformed plan accepted", c.name)
		}
	}
	// And the well-formed plan the cases are perturbations of.
	p := &Plan{numTrains: 4, offsets: []int{0, 2, 2, 3}, spikes: []int32{1, 3, 0}}
	if err := p.Validate(); err != nil {
		t.Fatalf("well-formed plan rejected: %v", err)
	}
}

func BenchmarkBuildPlanSparse784(b *testing.B) {
	img := gradientImage(784)
	s, _ := NewSource(img, BaselineBand(), 1, 0)
	var p *Plan
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p = s.BuildPlanInto(p, 0, 1, 500)
	}
}

func BenchmarkBuildPlanDense784(b *testing.B) {
	img := gradientImage(784)
	s, _ := NewSource(img, BaselineBand(), 1, 0)
	buf := make([]int, 0, 784)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for st := uint64(0); st < 500; st++ {
			buf = denseStep(s, st, 1, buf[:0])
		}
	}
}
