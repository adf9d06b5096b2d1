package core

import (
	"fmt"
	"testing"

	"parallelspikesim/internal/config"
	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/fixed"
	"parallelspikesim/internal/synapse"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("missing geometry accepted")
	}
	if _, err := New(Options{Inputs: 784}); err == nil {
		t.Error("missing neurons accepted")
	}
	if _, err := New(Options{Inputs: 784, Neurons: 10, Preset: "nope"}); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestNewDefaults(t *testing.T) {
	sim, err := New(Options{Inputs: 784, Neurons: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if sim.Net.Cfg.Syn.Format != fixed.Float32 {
		t.Errorf("default format %v", sim.Net.Cfg.Syn.Format)
	}
	if sim.Opts.Control.TLearnMS != 500 {
		t.Errorf("default TLearn %v", sim.Opts.Control.TLearnMS)
	}
	if sim.Opts.Control.Band.MaxHz != 22 {
		t.Errorf("default band max %v", sim.Opts.Control.Band.MaxHz)
	}
}

func TestHighFrequencyOption(t *testing.T) {
	sim, err := New(Options{Inputs: 784, Neurons: 10, HighFrequency: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if sim.Opts.Control.TLearnMS != 100 || sim.Opts.Control.Band.MaxHz != 78 {
		t.Errorf("high-frequency control = %+v", sim.Opts.Control)
	}
	// The highfreq preset implies the fast control too.
	sim2, err := New(Options{Inputs: 784, Neurons: 10, Preset: synapse.PresetHighFreq, Rule: synapse.Stochastic, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sim2.Close()
	if sim2.Opts.Control.TLearnMS != 100 {
		t.Errorf("preset did not imply fast control: %+v", sim2.Opts.Control)
	}
}

func TestPresetBandPropagates(t *testing.T) {
	sim, err := New(Options{Inputs: 784, Neurons: 10, Preset: synapse.Preset8Bit, Rule: synapse.Stochastic, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if sim.Net.Cfg.Syn.Format != fixed.Q1p7 {
		t.Errorf("format %v", sim.Net.Cfg.Syn.Format)
	}
	if sim.Opts.Control.Band.MinHz != 1 || sim.Opts.Control.Band.MaxHz != 22 {
		t.Errorf("band %+v", sim.Opts.Control.Band)
	}
}

func TestRoundingOverride(t *testing.T) {
	r := fixed.Truncate
	sim, err := New(Options{Inputs: 784, Neurons: 10, Preset: synapse.Preset8Bit, Rounding: &r, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if sim.Net.Cfg.Syn.Rounding != fixed.Truncate {
		t.Errorf("rounding %v", sim.Net.Cfg.Syn.Rounding)
	}
}

func TestTLearnOverrideAndWorkers(t *testing.T) {
	sim, err := New(Options{Inputs: 784, Neurons: 10, TLearnMS: 42, Workers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if sim.Opts.Control.TLearnMS != 42 {
		t.Errorf("TLearn override %v", sim.Opts.Control.TLearnMS)
	}
}

func TestTrainEvaluateSmoke(t *testing.T) {
	sim, err := New(Options{Inputs: 784, Neurons: 15, Rule: synapse.Stochastic, TLearnMS: 120, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	train := dataset.SynthDigits(12, 1)
	if err := sim.Train(train, nil); err != nil {
		t.Fatal(err)
	}
	if len(sim.MovingErrorCurve()) != 12 {
		t.Fatalf("moving curve %d", len(sim.MovingErrorCurve()))
	}
	conf, err := sim.Evaluate(dataset.SynthDigits(16, 2), 8)
	if err != nil {
		t.Fatal(err)
	}
	if conf.Total() != 8 {
		t.Fatalf("inference count %d", conf.Total())
	}
	rf := sim.ReceptiveField(0)
	if len(rf) != 784 {
		t.Fatalf("rf length %d", len(rf))
	}
}

func TestCloseIdempotent(t *testing.T) {
	sim, err := New(Options{Inputs: 10, Neurons: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sim.Close()
	sim.Close()
}

// TestNewMatchesConfigResolve pins the typed path (core.New) to the string
// path (config.Model.Resolve, which pssim and psserve use): for every
// preset, rule and override they build the same network config and
// control.
func TestNewMatchesConfigResolve(t *testing.T) {
	trunc := fixed.Truncate
	overrides := []struct {
		name  string
		typed func(*Options)
		str   func(*config.Model)
	}{
		{"none", func(*Options) {}, func(*config.Model) {}},
		{"rounding", func(o *Options) { o.Rounding = &trunc }, func(m *config.Model) { m.Rounding = "truncation" }},
		{"tlearn", func(o *Options) { o.TLearnMS = 40 }, func(m *config.Model) { m.TLearnMS = 40 }},
	}
	for _, p := range synapse.PresetNames() {
		for _, kind := range []synapse.RuleKind{synapse.Deterministic, synapse.Stochastic} {
			for _, ov := range overrides {
				t.Run(fmt.Sprintf("%s/%v/%s", p, kind, ov.name), func(t *testing.T) {
					o := Options{Inputs: 16, Neurons: 3, Preset: p, Rule: kind, Workers: 1, Seed: 5}
					ov.typed(&o)
					sim, err := New(o)
					if err != nil {
						t.Fatal(err)
					}
					defer sim.Close()
					m := config.Model{Rule: kind.String(), Preset: string(p), Seed: 5}
					ov.str(&m)
					cfg, ctl, err := m.Resolve(16, 3)
					if err != nil {
						t.Fatal(err)
					}
					if sim.Net.Cfg != cfg {
						t.Errorf("network config:\ncore   %+v\nconfig %+v", sim.Net.Cfg, cfg)
					}
					if sim.Opts.Control != ctl {
						t.Errorf("control: core %+v, config %+v", sim.Opts.Control, ctl)
					}
				})
			}
		}
	}
}
