package encode

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

// densePlan materializes a presentation the reference way: one dense
// Source.Step scan per step, exactly what BuildPlan did before the sparse
// event builder. The differential wall in this file holds the sparse
// builder to its output bit for bit.
func densePlan(s *Source, startStep uint64, dt float64, steps int) [][]int {
	s.Prepare(dt)
	out := make([][]int, steps)
	for i := 0; i < steps; i++ {
		out[i] = s.Step(startStep+uint64(i), dt, nil)
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
		// The zero-copy view and the bitset must tell the same story.
		view := p.StepView(st)
		for i, px := range view {
			if int(px) != wantRow[i] {
				t.Fatalf("%s step %d: StepView %v, dense %v", label, st, view, wantRow)
			}
			if !p.Contains(st, int(px)) {
				t.Fatalf("%s step %d: Contains(%d) false for a spiking pixel", label, st, px)
			}
		}
		pop := 0
		for _, w := range p.StepBits(st) {
			pop += bits.OnesCount64(w)
		}
		if pop != len(wantRow) {
			t.Fatalf("%s step %d: bitset popcount %d, dense %d spikes", label, st, pop, len(wantRow))
		}
	}
	if p.Spikes() != total {
		t.Fatalf("%s: plan reports %d spikes, dense emitted %d", label, p.Spikes(), total)
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
// wall: every (band, kind, dt, seed, start step) cell, including the
// band-edge rates 0 Hz (MinHz=0 background), 5 Hz and 78 Hz (the paper's
// high-frequency band edges), must produce identical spike sets through the
// event-driven builder and the dense scan.
func TestSparseMatchesDense(t *testing.T) {
	img := gradientImage(97) // odd size: the bitset's last word is partial
	bands := []Band{
		{MinHz: 0, MaxHz: 40},   // 0 Hz edge: background pixels never spike
		{MinHz: 5, MaxHz: 78},   // high-frequency band edges
		{MinHz: 1, MaxHz: 22},   // baseline band
		{MinHz: 0, MaxHz: 1000}, // saturating rates: spike every step
	}
	for _, kind := range []TrainKind{Poisson, Regular} {
		for _, band := range bands {
			for _, dt := range []float64{1, 0.5, 0.1} {
				for _, start := range []uint64{0, 1, 12345, 1 << 32} {
					seed := uint64(0xabcd) ^ start
					sparse, err := NewSource(img, band, kind, seed, start)
					if err != nil {
						t.Fatal(err)
					}
					dense, err := NewSource(img, band, kind, seed, start)
					if err != nil {
						t.Fatal(err)
					}
					steps := 120
					p := sparse.BuildPlan(start, dt, steps, band)
					label := kind.String() + " " + band.labelForTest() + " dt=" +
						floatLabel(dt) + " start=" + uintLabel(start)
					comparePlan(t, label, p, densePlan(dense, start, dt, steps))
				}
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

// Property wall: random (band, kind, rate spread, dt, seed, presentation)
// combinations — quick.Check drives the corners no table anticipates.
func TestSparseMatchesDenseProperty(t *testing.T) {
	check := func(seed, pres uint64, minRaw, spanRaw, dtRaw float64, kindBit bool, imgSeed uint8) bool {
		band := Band{MinHz: math.Mod(math.Abs(minRaw), 50)}
		band.MaxHz = band.MinHz + math.Mod(math.Abs(spanRaw), 100)
		if band.MaxHz == 0 {
			band.MaxHz = 1
		}
		dt := 0.05 + math.Mod(math.Abs(dtRaw), 2)
		kind := Poisson
		if kindBit {
			kind = Regular
		}
		img := make([]uint8, 61)
		for i := range img {
			img[i] = uint8(int(imgSeed)*31+i*7) % 255
		}
		img[0], img[1] = 0, 255
		sparse, err := NewSource(img, band, kind, seed, pres)
		if err != nil {
			return false
		}
		dense, err := NewSource(img, band, kind, seed, pres)
		if err != nil {
			return false
		}
		const steps = 64
		p := sparse.BuildPlan(pres, dt, steps, band)
		if p.Validate() != nil {
			return false
		}
		var buf []int
		for st := 0; st < steps; st++ {
			want := dense.Step(pres+uint64(st), dt, nil)
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
// recycled plan previously held — a reused buffer from a bigger, smaller or
// different-kind build must leave no residue.
func TestBuildPlanIntoReuseBitIdentical(t *testing.T) {
	band := HighFrequencyBand()
	imgA := gradientImage(80)
	imgB := gradientImage(80)
	for i := range imgB {
		imgB[i] = 255 - imgB[i]
	}
	for _, kind := range []TrainKind{Poisson, Regular} {
		src, err := NewSource(imgA, band, kind, 77, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Seed the recycled plan with a larger presentation so every buffer
		// carries stale content into the rebuild.
		p := src.BuildPlan(0, 1, 300, band)
		if err := src.Rebind(imgB, band, 4242); err != nil {
			t.Fatal(err)
		}
		p = src.BuildPlanInto(p, 4242, 0.5, 150, band)

		fresh, err := NewSource(imgB, band, kind, 77, 4242)
		if err != nil {
			t.Fatal(err)
		}
		comparePlan(t, kind.String()+" reuse", p, densePlan(fresh, 4242, 0.5, 150))
	}
}

// BuildPlanInto self-prepares: a source that was never Prepared (or was
// Prepared for a different dt) must build the same plan as a prepared one.
func TestBuildPlanSelfPrepares(t *testing.T) {
	img := gradientImage(40)
	band := BaselineBand()
	cold, err := NewSource(img, band, Poisson, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := NewSource(img, band, Poisson, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	stale.Prepare(2) // wrong dt: must be refreshed, not trusted
	ref, err := NewSource(img, band, Poisson, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := densePlan(ref, 3, 0.5, 100)
	comparePlan(t, "cold", cold.BuildPlan(3, 0.5, 100, band), want)
	comparePlan(t, "stale-dt", stale.BuildPlan(3, 0.5, 100, band), want)
}

// Zero-step plans are legal (a degenerate control could yield them) and must
// be empty, valid and safe to query.
func TestBuildPlanZeroSteps(t *testing.T) {
	src, err := NewSource(gradientImage(8), BaselineBand(), Poisson, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := src.BuildPlan(0, 1, 0, BaselineBand())
	if p.Steps() != 0 || p.Spikes() != 0 {
		t.Fatalf("zero-step plan: %d steps, %d spikes", p.Steps(), p.Spikes())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanFromEventsRoundTrip(t *testing.T) {
	img := gradientImage(70)
	for _, kind := range []TrainKind{Poisson, Regular} {
		src, err := NewSource(img, HighFrequencyBand(), kind, 5, 11)
		if err != nil {
			t.Fatal(err)
		}
		p := src.BuildPlan(11, 1, 90, HighFrequencyBand())
		q, err := PlanFromEvents(p.StartStep(), HighFrequencyBand(), kind, 1, p.NumTrains(), p.offsets, p.spikes)
		if err != nil {
			t.Fatalf("%v: round trip rejected: %v", kind, err)
		}
		ref, err := NewSource(img, HighFrequencyBand(), kind, 5, 11)
		if err != nil {
			t.Fatal(err)
		}
		comparePlan(t, kind.String()+" roundtrip", q, densePlan(ref, 11, 1, 90))
	}
}

// PlanFromEvents must reject every class of hostile stream without
// panicking: the offsets are attacker-controlled slice bounds.
func TestPlanFromEventsHostile(t *testing.T) {
	band := BaselineBand()
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
		{"huge pixel index", 4, []int{0, 1}, []int32{1 << 30}},
		{"descending pixels in step", 4, []int{0, 2}, []int32{2, 1}},
		{"duplicate pixel in step", 4, []int{0, 2}, []int32{1, 1}},
	}
	for _, c := range cases {
		if _, err := PlanFromEvents(0, band, Poisson, 1, c.numTrains, c.offsets, c.spikes); err == nil {
			t.Errorf("%s: hostile stream accepted", c.name)
		}
	}
	// And the well-formed baseline the cases are perturbations of.
	p, err := PlanFromEvents(7, band, Poisson, 1, 4, []int{0, 2, 2, 3}, []int32{1, 3, 0})
	if err != nil {
		t.Fatalf("well-formed stream rejected: %v", err)
	}
	if p.Steps() != 3 || p.Spikes() != 3 || !p.Contains(0, 3) || p.Contains(1, 3) || !p.Contains(2, 0) {
		t.Fatalf("reconstructed plan misreads its events")
	}
}

// PlanFromEvents copies its inputs: mutating the caller's slices afterwards
// must not corrupt the plan.
func TestPlanFromEventsCopies(t *testing.T) {
	offsets := []int{0, 1}
	spikes := []int32{2}
	p, err := PlanFromEvents(0, BaselineBand(), Poisson, 1, 4, offsets, spikes)
	if err != nil {
		t.Fatal(err)
	}
	offsets[1] = 99
	spikes[0] = -5
	if err := p.Validate(); err != nil {
		t.Fatalf("plan aliased caller memory: %v", err)
	}
}

// Regular-train skip-ahead torture: rates whose periods are near, equal to,
// multiples of and fractions of the step width, where boundary-adjacent
// float behavior is nastiest.
func TestSparseRegularPeriodEdges(t *testing.T) {
	for _, hz := range []float64{0.5, 1, 9.9, 10, 100, 499, 500, 999, 1000, 2000} {
		band := Band{MinHz: hz, MaxHz: hz}
		img := []uint8{0, 128, 255}
		sparse, err := NewSource(img, band, Regular, 13, 2)
		if err != nil {
			t.Fatal(err)
		}
		dense, err := NewSource(img, band, Regular, 13, 2)
		if err != nil {
			t.Fatal(err)
		}
		p := sparse.BuildPlan(2, 1, 3000, band)
		comparePlan(t, "regular "+floatLabel(hz)+"Hz", p, densePlan(dense, 2, 1, 3000))
	}
}

func BenchmarkBuildPlanSparse784(b *testing.B) {
	img := gradientImage(784)
	s, _ := NewSource(img, BaselineBand(), Poisson, 1, 0)
	var p *Plan
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p = s.BuildPlanInto(p, 0, 1, 500, BaselineBand())
	}
}

func BenchmarkBuildPlanDense784(b *testing.B) {
	img := gradientImage(784)
	s, _ := NewSource(img, BaselineBand(), Poisson, 1, 0)
	s.Prepare(1)
	buf := make([]int, 0, 784)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for st := uint64(0); st < 500; st++ {
			buf = s.Step(st, 1, buf[:0])
		}
	}
}
