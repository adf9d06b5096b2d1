package infer

// In-package AllocsPerRun gate for the inference hot loop: a pooled
// network.Core's encode plus its //psslint:noalloc step loop. Forward
// itself allocates exactly its result's SpikeCounts slice; the encode and
// the step loop must be allocation-free once the core has served one
// presentation.

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
	// capacity in the core; holding the core across the measurement keeps
	// the pool out of the picture.
	core := e.cores.Get().(*network.Core)
	defer e.cores.Put(core)
	if _, err := e.forward(core, img, 0); err != nil {
		t.Fatal(err)
	}
	total := 0
	avg := testing.AllocsPerRun(20, func() {
		// forward's per-presentation work, minus the result allocation.
		// Encode recycles the core's source and plan storage, so the whole
		// presentation — build included — must stay off the heap.
		if _, err := core.Encode(img, e.ctl, 0); err != nil {
			t.Error(err)
			return
		}
		core.Pop.ClearSpikeCounts()
		total += core.Run()
	})
	if avg != 0 {
		t.Errorf("core encode+run allocates %.1f per presentation, want 0 (input spikes seen: %d)", avg, total)
	}
}
