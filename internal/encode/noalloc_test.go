package encode

// AllocsPerRun gate for the //psslint:noalloc annotations on the spike
// source step loop: once the caller's spike buffer has capacity for the
// image, Step and StepRange must not touch the heap.

import (
	"testing"

	"parallelspikesim/internal/check"
)

func TestNoAllocStep(t *testing.T) {
	if check.Enabled {
		t.Skip("simcheck build: noalloc gates apply to release paths only")
	}
	img := make([]uint8, 16)
	for i := range img {
		img[i] = uint8(i * 17) // mix of silent and near-saturated pixels
	}
	s, err := NewSource(img, BaselineBand(), Poisson, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	const dt = 0.5
	s.Prepare(dt)
	spikes := make([]int, 0, len(img))
	step := uint64(0)
	avg := testing.AllocsPerRun(200, func() {
		spikes = s.Step(step, dt, spikes[:0])
		spikes = s.StepRange(step, dt, 0, len(img), spikes[:0])
		step++
	})
	if avg != 0 {
		t.Errorf("Step/StepRange allocate %.1f per run, want 0", avg)
	}
}

// The per-step sparse plan lookups — CSR copy, zero-copy view, bitset word
// row and O(1) membership — are the replay hot path: once the caller's
// buffer has capacity they must never touch the heap.
func TestNoAllocPlanStep(t *testing.T) {
	if check.Enabled {
		t.Skip("simcheck build: noalloc gates apply to release paths only")
	}
	img := make([]uint8, 96)
	for i := range img {
		img[i] = uint8(i * 5)
	}
	s, err := NewSource(img, HighFrequencyBand(), Poisson, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := s.BuildPlan(0, 1, 50)
	dst := make([]int, 0, len(img))
	st := 0
	sink := 0
	avg := testing.AllocsPerRun(200, func() {
		dst = p.Step(st, dst[:0])
		sink += len(p.StepView(st))
		sink += len(p.StepBits(st))
		if p.Contains(st, 1) {
			sink++
		}
		st = (st + 1) % p.Steps()
	})
	if avg != 0 {
		t.Errorf("plan lookups allocate %.1f per run, want 0 (sink %d)", avg, sink)
	}
}

// BuildPlanInto recycling a same-shape plan must be allocation-free in the
// steady state for both generators — this is what keeps the network's
// inline presentations and infer's pooled scratch off the heap.
func TestNoAllocBuildPlanInto(t *testing.T) {
	if check.Enabled {
		t.Skip("simcheck build: noalloc gates apply to release paths only")
	}
	img := make([]uint8, 64)
	for i := range img {
		img[i] = uint8(255 - i*3)
	}
	for _, kind := range []TrainKind{Poisson, Regular} {
		s, err := NewSource(img, BaselineBand(), kind, 11, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Warm: first build sizes every buffer for this shape, including the
		// worst-case Regular event staging.
		p := s.BuildPlanInto(nil, 0, 1, 80)
		pres := uint64(1)
		avg := testing.AllocsPerRun(100, func() {
			if err := s.Rebind(img, BaselineBand(), pres); err != nil {
				t.Error(err)
				return
			}
			p = s.BuildPlanInto(p, pres, 1, 80)
			pres++
		})
		if avg != 0 {
			t.Errorf("%v: steady-state BuildPlanInto allocates %.1f per presentation, want 0", kind, avg)
		}
	}
}
