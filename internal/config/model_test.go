package config

import (
	"testing"

	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/fixed"
	"parallelspikesim/internal/learn"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/synapse"
)

func TestModelValidation(t *testing.T) {
	m := Default().Model
	if _, _, err := m.Resolve(0, 10); err == nil {
		t.Error("missing inputs accepted")
	}
	if _, _, err := m.Resolve(784, 0); err == nil {
		t.Error("missing neurons accepted")
	}
	m.Preset = "nope"
	if _, _, err := m.Resolve(784, 10); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestModelDefaults(t *testing.T) {
	cfg, ctl, err := Default().Model.Resolve(784, 10)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Syn.Format != fixed.Float32 {
		t.Errorf("default format %v", cfg.Syn.Format)
	}
	if ctl.TLearnMS != 500 {
		t.Errorf("default TLearn %v", ctl.TLearnMS)
	}
	if ctl.Band.MaxHz != 22 {
		t.Errorf("default band max %v", ctl.Band.MaxHz)
	}
}

func TestModelHighFrequency(t *testing.T) {
	for _, kind := range []synapse.RuleKind{synapse.Deterministic, synapse.Stochastic} {
		m := Model{Rule: kind.String(), Preset: string(synapse.PresetHighFreq), Seed: 1}
		_, ctl, err := m.Resolve(784, 10)
		if err != nil {
			t.Fatal(err)
		}
		if ctl.TLearnMS != 100 || ctl.Band.MaxHz != 78 {
			t.Errorf("%v: high-frequency control = %+v", kind, ctl)
		}
	}
}

func TestModelPresetBandPropagates(t *testing.T) {
	m := Model{Rule: synapse.Stochastic.String(), Preset: string(synapse.Preset8Bit), Seed: 1}
	cfg, ctl, err := m.Resolve(784, 10)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Syn.Format != fixed.Q1p7 {
		t.Errorf("format %v", cfg.Syn.Format)
	}
	if ctl.Band.MinHz != 1 || ctl.Band.MaxHz != 22 {
		t.Errorf("band %+v", ctl.Band)
	}
}

func TestModelRoundingOverride(t *testing.T) {
	m := Model{Rule: synapse.Deterministic.String(), Preset: string(synapse.Preset8Bit),
		Rounding: fixed.Truncate.String(), Seed: 1}
	cfg, _, err := m.Resolve(784, 10)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Syn.Rounding != fixed.Truncate {
		t.Errorf("rounding %v", cfg.Syn.Rounding)
	}
}

func TestModelTLearnOverride(t *testing.T) {
	m := Default().Model
	m.TLearnMS = 42
	_, ctl, err := m.Resolve(784, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ctl.TLearnMS != 42 {
		t.Errorf("TLearn override %v", ctl.TLearnMS)
	}
}

// TestModelTrainEvaluateSmoke runs a resolved model through training,
// labelling and inference and checks the shape of what comes back.
func TestModelTrainEvaluateSmoke(t *testing.T) {
	m := Model{Rule: synapse.Stochastic.String(), Preset: string(synapse.PresetFloat),
		TLearnMS: 120, Seed: 3}
	cfg, ctl, err := m.Resolve(784, 15)
	if err != nil {
		t.Fatal(err)
	}
	net, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := learn.DefaultOptions()
	opts.Control = ctl
	res, err := learn.Run(net, opts, dataset.SynthDigits(12, 1), dataset.SynthDigits(16, 2), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MovingError) != 12 {
		t.Fatalf("moving curve %d", len(res.MovingError))
	}
	if res.Confusion.Total() != 8 {
		t.Fatalf("inference count %d", res.Confusion.Total())
	}
	rf := make([]float64, cfg.NumInputs)
	net.Syn.Column(0, rf)
	if len(rf) != 784 {
		t.Fatalf("rf length %d", len(rf))
	}
}
