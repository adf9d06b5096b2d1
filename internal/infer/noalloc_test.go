package infer

// In-package AllocsPerRun gate for the inference hot loop: the
// //psslint:noalloc step core (network.Core) driven through a pooled
// scratch. Forward itself allocates exactly its result's SpikeCounts slice;
// the plan rebuild and the core's step loop must be allocation-free once
// the scratch has served one presentation.

import (
	"testing"

	"parallelspikesim/internal/check"
	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/synapse"
)

func TestNoAllocRun(t *testing.T) {
	if check.Enabled {
		t.Skip("simcheck build: noalloc gates apply to release paths only")
	}
	syn, _, err := synapse.PresetConfig(synapse.Preset8Bit, synapse.Deterministic)
	if err != nil {
		t.Fatal(err)
	}
	syn.Seed = 9
	cfg := network.DefaultConfig(16, 4, syn)
	ctl := encode.Control{Band: encode.BaselineBand(), TLearnMS: 20}
	n := cfg.NumInputs * cfg.NumNeurons
	g := make([]float64, n)
	for i := range g {
		g[i] = 0.3
	}
	e, err := New(Params{
		Net:         cfg,
		Control:     ctl,
		G:           g,
		Theta:       make([]float64, cfg.NumNeurons),
		Assignments: []int{0, 1, 0, 1},
		NumClasses:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	img := make([]uint8, cfg.NumInputs)
	for i := range img {
		img[i] = uint8(i * 16)
	}
	// One full presentation binds the source and warms every append
	// capacity in the scratch; holding the scratch across the measurement
	// keeps the pool out of the picture.
	s := e.scratch.Get().(*scratch)
	defer e.scratch.Put(s)
	if _, err := e.forward(s, img, 0); err != nil {
		t.Fatal(err)
	}
	total := 0
	avg := testing.AllocsPerRun(20, func() {
		// forward's per-presentation setup, minus the result allocation.
		// The sparse plan rebuild recycles the scratch plan's storage, so
		// the whole presentation — build included — must stay off the heap.
		if err := s.src.Rebind(img, e.ctl.Band, 0); err != nil {
			t.Error(err)
			return
		}
		s.plan = s.src.BuildPlanInto(s.plan, 0, e.cfg.DTms, e.steps, e.ctl.Band)
		s.core.Pop.ClearSpikeCounts()
		total += s.core.Run(s.plan)
	})
	if avg != 0 {
		t.Errorf("core run+rebuild allocates %.1f per presentation, want 0 (input spikes seen: %d)", avg, total)
	}
}
