package network

import (
	"testing"

	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/obs"
	"parallelspikesim/internal/synapse"
)

// observedPresent runs one learning presentation against an instrumented
// network and returns the network plus its registry.
func observedPresent(t *testing.T) (*Network, *obs.Registry) {
	t.Helper()
	cfg := testConfig(t, synapse.Stochastic, 12)
	reg := obs.NewRegistry()
	net, err := New(cfg, WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	img := testImage()
	ctl := encode.Control{Band: encode.BaselineBand(), TLearnMS: 200}
	if _, err := net.Present(img, ctl, true, nil); err != nil {
		t.Fatal(err)
	}
	return net, reg
}

func TestWithObserverRecordsPhasesAndCounters(t *testing.T) {
	net, reg := observedPresent(t)

	steps := uint64(net.Step())
	for _, name := range []string{"network_phase_encode_ns", "network_phase_integrate_ns"} {
		if got := reg.Timer(name).Count(); got != steps {
			t.Errorf("%s count = %d, want one observation per step (%d)", name, got, steps)
		}
	}
	// One inhibit observation per step (the timer spans the whole WTA
	// section, spikes or not).
	if got := reg.Timer("network_phase_inhibit_ns").Count(); got != steps {
		t.Errorf("inhibit count = %d, want %d", got, steps)
	}
	if net.TotalExcSpikes > 0 && reg.Timer("network_phase_plasticity_ns").Count() == 0 {
		t.Error("plasticity timer empty despite post spikes during learning")
	}
	// The sparse plan build is a per-presentation cost, not a per-step one:
	// one inline presentation records exactly one build observation.
	if got := reg.Timer("network_phase_encode_build_ns").Count(); got != 1 {
		t.Errorf("encode build count = %d, want 1 per inline presentation", got)
	}
	// How many chunks the helper builds depends on scheduling; at most all.
	ahead := reg.Counter("network_encode_chunks_ahead_total")
	if net.core.obsAhead != ahead {
		t.Error("the core's helper counter is not the registry's network_encode_chunks_ahead_total")
	}
	if got, chunks := ahead.Value(), (steps+chunkSteps-1)/chunkSteps; got > chunks {
		t.Errorf("helper built %d chunks of a %d-chunk presentation", got, chunks)
	}

	// Counters must mirror the legacy diagnostic totals exactly.
	if got := reg.Counter("network_input_spikes_total").Value(); got != net.TotalInputSpikes {
		t.Errorf("input spikes counter %d != %d", got, net.TotalInputSpikes)
	}
	if got := reg.Counter("network_exc_spikes_total").Value(); got != net.TotalExcSpikes {
		t.Errorf("exc spikes counter %d != %d", got, net.TotalExcSpikes)
	}
	if got := reg.Counter("network_inh_events_total").Value(); got != net.TotalInhEvents {
		t.Errorf("inh events counter %d != %d", got, net.TotalInhEvents)
	}
	if want := net.TotalExcSpikes * uint64(net.Cfg.NumInputs); reg.Counter("network_syn_updates_total").Value() != want {
		t.Errorf("syn updates counter %d != %d", reg.Counter("network_syn_updates_total").Value(), want)
	}
}

func TestObserverDoesNotChangeResults(t *testing.T) {
	// Instrumentation must be observation-only: identical spike counts
	// with and without a registry.
	cfg := testConfig(t, synapse.Stochastic, 12)
	plain, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := New(cfg, WithObserver(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	img := testImage()
	ctl := encode.Control{Band: encode.BaselineBand(), TLearnMS: 150}
	for i := 0; i < 3; i++ {
		a, err1 := plain.Present(img, ctl, true, nil)
		b, err2 := observed.Present(img, ctl, true, nil)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		for n := range a.SpikeCounts {
			if a.SpikeCounts[n] != b.SpikeCounts[n] {
				t.Fatalf("presentation %d neuron %d: %d vs %d spikes", i, n, a.SpikeCounts[n], b.SpikeCounts[n])
			}
		}
	}
}

func TestWithRecorderDefault(t *testing.T) {
	cfg := testConfig(t, synapse.Deterministic, 8)
	rec := &Recorder{}
	net, err := New(cfg, WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	ctl := encode.Control{Band: encode.BaselineBand(), TLearnMS: 100}
	res, err := net.Present(testImage(), ctl, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.InputSpikes != len(rec.InputSpikes) {
		t.Fatalf("default recorder captured %d input spikes, result says %d", len(rec.InputSpikes), res.InputSpikes)
	}
	// An explicit recorder argument overrides the default.
	override := &Recorder{}
	before := len(rec.InputSpikes)
	if _, err := net.Present(testImage(), ctl, false, override); err != nil {
		t.Fatal(err)
	}
	if len(rec.InputSpikes) != before {
		t.Error("default recorder written despite explicit override")
	}
	if len(override.InputSpikes) == 0 {
		t.Error("override recorder captured nothing")
	}
}
