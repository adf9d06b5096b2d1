package synapse

// AllocsPerRun gates for the //psslint:noalloc annotations in this package.
// Together with the compiler-escape check in scripts/check-allocs.sh they
// pin the hot paths — current accumulation and STDP application — at zero
// heap allocations per call.

import (
	"testing"

	"parallelspikesim/internal/check"
	"parallelspikesim/internal/fixed"
	"parallelspikesim/internal/rng"
)

// skipIfInstrumented skips allocation gates on simcheck builds: the
// assertion paths disable the packed fast step and the guarantee being
// pinned is a property of release builds.
func skipIfInstrumented(t *testing.T) {
	t.Helper()
	if check.Enabled {
		t.Skip("simcheck build: noalloc gates apply to release paths only")
	}
}

func TestNoAllocAccumulateSpikes(t *testing.T) {
	skipIfInstrumented(t)
	pres := []int{0, 2, 2, 3}
	for _, f := range []fixed.Format{fixed.Q0p2, fixed.Q0p4, fixed.Q1p7, fixed.Q1p15, fixed.Float32} {
		m, err := NewMatrix(4, 45, f)
		if err != nil {
			t.Fatal(err)
		}
		m.InitUniform(rng.NewStream(2), 0.1, 0.9)
		cur := make([]float64, 45)
		avg := testing.AllocsPerRun(50, func() {
			m.AccumulateSpikes(pres, 0.6, 0.75, cur) // register blocks + tail
		})
		if avg != 0 {
			t.Errorf("%s: AccumulateSpikes allocates %.1f per run, want 0", f, avg)
		}
	}
}

// TestNoAllocOnPostSpike: both rules on a small 8-bit store, and the
// stochastic kernel at the train-fast geometry, 784 pres × 1000 posts at
// the high-frequency preset on the packed Q1.7 and the float32 store:
// whole 64-pre blocks and the short last block, on a scattered post and
// on one that repeats.
func TestNoAllocOnPostSpike(t *testing.T) {
	skipIfInstrumented(t)
	// Mix of recent (inside the LTP window) and stale pre spikes so both
	// the potentiation and depression arms run.
	small := []float64{Never, 38, 12, 39.5, 5, Never}
	wide := make([]float64, 784)
	for i := range wide {
		wide[i] = float64(i % 41)
		if i%7 == 0 {
			wide[i] = Never
		}
	}
	for _, c := range []struct {
		preset  Preset
		format  fixed.Format
		kind    RuleKind
		lastPre []float64
		nPost   int
	}{
		{Preset8Bit, fixed.Q1p7, Deterministic, small, 4},
		{Preset8Bit, fixed.Q1p7, Stochastic, small, 4},
		{PresetHighFreq, fixed.Q1p7, Stochastic, wide, 1000},
		{PresetHighFreq, fixed.Float32, Stochastic, wide, 1000},
	} {
		cfg, _, err := PresetConfig(c.preset, c.kind)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Format = c.format
		cfg.Seed = 41
		m, err := NewMatrix(len(c.lastPre), c.nPost, cfg.Format)
		if err != nil {
			t.Fatal(err)
		}
		m.InitUniform(rng.NewStream(1), 0.2, 0.8)
		p, err := NewPlasticity(cfg, m)
		if err != nil {
			t.Fatal(err)
		}
		step := uint64(0)
		avg := testing.AllocsPerRun(50, func() {
			p.OnPostSpike(int(step*389)%c.nPost, 40, c.lastPre, step)
			p.OnPostSpike(2, 40, c.lastPre, step)
			step++
		})
		if avg != 0 {
			t.Errorf("%s %s %v: OnPostSpike allocates %.1f per run, want 0", c.preset, c.format, c.kind, avg)
		}
	}
}
