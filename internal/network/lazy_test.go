package network

import (
	"testing"

	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/engine"
	"parallelspikesim/internal/synapse"
)

func presetConfig(t *testing.T, preset synapse.Preset, kind synapse.RuleKind, neurons int) Config {
	t.Helper()
	syn, _, err := synapse.PresetConfig(preset, kind)
	if err != nil {
		t.Fatal(err)
	}
	syn.Seed = 42
	return DefaultConfig(28*28, neurons, syn)
}

// assertSameRun drives two networks through the same presentations and
// requires bit-identical spike counts, input spikes and conductances.
func assertSameRun(t *testing.T, label string, a, b *Network, imgs [][]uint8, ctl encode.Control, learn bool) {
	t.Helper()
	for i, img := range imgs {
		ra, err1 := a.Present(img, ctl, learn, nil)
		rb, err2 := b.Present(img, ctl, learn, nil)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if ra.InputSpikes != rb.InputSpikes {
			t.Fatalf("%s: image %d input spikes differ: %d vs %d", label, i, ra.InputSpikes, rb.InputSpikes)
		}
		for n := range ra.SpikeCounts {
			if ra.SpikeCounts[n] != rb.SpikeCounts[n] {
				t.Fatalf("%s: image %d neuron %d spikes differ: %d vs %d",
					label, i, n, ra.SpikeCounts[n], rb.SpikeCounts[n])
			}
		}
	}
	wa, wb := a.Syn.Weights(), b.Syn.Weights()
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("%s: conductance %d diverged: %v vs %v", label, i, wa[i], wb[i])
		}
	}
	pa, da := a.Plast.Counters()
	pb, db := b.Plast.Counters()
	if pa != pb || da != db {
		t.Fatalf("%s: update counters diverged: pot %d vs %d, dep %d vs %d", label, pa, pb, da, db)
	}
}

func TestLazyMatchesDense(t *testing.T) {
	// The tentpole invariant: deferred row-flush plasticity is bit-identical
	// to the eager column schedule — same spikes, same winners, same final
	// conductances, same update counters — for both rules, quantized and
	// float formats, sequential and pooled execution.
	data := dataset.SynthDigits(6, 3)
	ctl := encode.Control{Band: encode.HighFrequencyBand(), TLearnMS: 120}
	for _, preset := range []synapse.Preset{synapse.PresetFloat, synapse.Preset8Bit, synapse.Preset2Bit} {
		for _, kind := range []synapse.RuleKind{synapse.Deterministic, synapse.Stochastic} {
			cfg := presetConfig(t, preset, kind, 17)
			dense, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			lazy, err := New(cfg, WithPlasticity(LazyPlasticity))
			if err != nil {
				t.Fatal(err)
			}
			if lazy.Plasticity() != LazyPlasticity || dense.Plasticity() != DensePlasticity {
				t.Fatal("plasticity mode accessor wrong")
			}
			assertSameRun(t, string(preset)+"/"+kind.String(), dense, lazy, data.Images, ctl, true)
		}
	}
}

func TestLazyParallelMatchesDenseSequential(t *testing.T) {
	// Cross both axes at once: pooled lazy vs sequential dense.
	data := dataset.SynthDigits(4, 2)
	cfg := presetConfig(t, synapse.Preset8Bit, synapse.Stochastic, 23)
	dense, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := engine.New(4)
	defer pool.Close()
	lazy, err := New(cfg, WithExecutor(pool), WithPlasticity(LazyPlasticity))
	if err != nil {
		t.Fatal(err)
	}
	ctl := encode.Control{Band: encode.BaselineBand(), TLearnMS: 150}
	assertSameRun(t, "pooled-lazy", dense, lazy, data.Images, ctl, true)
}

func TestLazyInferenceMatchesDense(t *testing.T) {
	// With learn=false no events are recorded; the lazy network must behave
	// exactly like the dense one and leave conductances untouched.
	cfg := presetConfig(t, synapse.PresetFloat, synapse.Stochastic, 11)
	dense, _ := New(cfg)
	lazy, _ := New(cfg, WithPlasticity(LazyPlasticity))
	before := lazy.Syn.Weights()
	ctl := encode.Control{Band: encode.HighFrequencyBand(), TLearnMS: 100}
	assertSameRun(t, "inference", dense, lazy, [][]uint8{testImage()}, ctl, false)
	after := lazy.Syn.Weights()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("inference presentation changed conductances in lazy mode")
		}
	}
}

func TestParsePlasticityMode(t *testing.T) {
	cases := map[string]PlasticityMode{
		"dense": DensePlasticity, "eager": DensePlasticity,
		"lazy": LazyPlasticity, "event": LazyPlasticity, "event-driven": LazyPlasticity,
	}
	for s, want := range cases {
		got, err := ParsePlasticityMode(s)
		if err != nil || got != want {
			t.Fatalf("ParsePlasticityMode(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePlasticityMode("nope"); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if DensePlasticity.String() != "dense" || LazyPlasticity.String() != "lazy" {
		t.Fatal("mode names drifted from the psbench flag spelling")
	}
}

// reversedExecutor is an adversarial but contract-valid executor: it covers
// [0, n) with the standard contiguous partition, but hands chunk slot c the
// range of chunk k-1-c. Any code assuming "ascending chunk slots hold
// ascending ranges" breaks under it.
type reversedExecutor struct{ k int }

func (e *reversedExecutor) Workers() int { return e.k }
func (e *reversedExecutor) Close()       {}
func (e *reversedExecutor) For(n int, fn func(chunk, lo, hi int)) {
	for c := 0; c < e.k; c++ {
		lo, hi := engine.Partition(n, e.k, e.k-1-c)
		fn(c, lo, hi)
	}
}

func TestReversedExecutorMatchesSequential(t *testing.T) {
	// Steps run inline, so the only dispatch left in a presentation is the
	// lazy end-of-presentation row flush. Handing it permuted chunk→range
	// assignments must not change a single bit: each flush chunk touches
	// only its own rows.
	data := dataset.SynthDigits(4, 2)
	cfg := presetConfig(t, synapse.PresetFloat, synapse.Stochastic, 13)
	seq, err := New(cfg, WithPlasticity(LazyPlasticity))
	if err != nil {
		t.Fatal(err)
	}
	rev, err := New(cfg, WithExecutor(&reversedExecutor{k: 3}), WithPlasticity(LazyPlasticity))
	if err != nil {
		t.Fatal(err)
	}
	ctl := encode.Control{Band: encode.BaselineBand(), TLearnMS: 150}
	assertSameRun(t, "reversed-executor", seq, rev, data.Images, ctl, true)
}

func BenchmarkPresentLazy100(b *testing.B) {
	syn, _, _ := synapse.PresetConfig(synapse.PresetFloat, synapse.Stochastic)
	cfg := DefaultConfig(784, 100, syn)
	net, _ := New(cfg, WithPlasticity(LazyPlasticity))
	img := testImage()
	ctl := encode.Control{Band: encode.BaselineBand(), TLearnMS: 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Present(img, ctl, true, nil); err != nil {
			b.Fatal(err)
		}
	}
}
