package encode

// AllocsPerRun gates for the //psslint:noalloc plan lookups and the
// steady-state plan rebuild.

import (
	"testing"

	"parallelspikesim/internal/check"
)

// The per-step sparse plan lookups — CSR copy and zero-copy view — are the
// replay hot path: once the caller's buffer has capacity they must never
// touch the heap.
func TestNoAllocPlanStep(t *testing.T) {
	if check.Enabled {
		t.Skip("simcheck build: noalloc gates apply to release paths only")
	}
	img := make([]uint8, 96)
	for i := range img {
		img[i] = uint8(i * 5)
	}
	s, err := NewSource(img, HighFrequencyBand(), 3, 0)
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
		st = (st + 1) % p.Steps()
	})
	if avg != 0 {
		t.Errorf("plan lookups allocate %.1f per run, want 0 (sink %d)", avg, sink)
	}
}

// BuildPlanInto recycling a same-shape plan must be allocation-free in the
// steady state — this is what keeps the step core's chunk rebuilds off the
// heap.
func TestNoAllocBuildPlanInto(t *testing.T) {
	if check.Enabled {
		t.Skip("simcheck build: noalloc gates apply to release paths only")
	}
	img := make([]uint8, 64)
	for i := range img {
		img[i] = uint8(255 - i*3)
	}
	s, err := NewSource(img, BaselineBand(), 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Warm: the first build sizes every buffer for this shape.
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
		t.Errorf("steady-state BuildPlanInto allocates %.1f per presentation, want 0", avg)
	}
}
