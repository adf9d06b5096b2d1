package config

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/fixed"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/synapse"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseAppliesDefaults(t *testing.T) {
	f, err := Parse([]byte(`{"neurons": 50}`))
	if err != nil {
		t.Fatal(err)
	}
	if f.Neurons != 50 {
		t.Fatalf("neurons %d", f.Neurons)
	}
	if f.Data != "digits" || f.Rule != "stochastic" || f.TrainImages != 2000 {
		t.Fatalf("defaults not applied: %+v", f)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"nuerons": 50}`)); err == nil {
		t.Fatal("typo field accepted")
	}
}

func TestParseRejectsInvalid(t *testing.T) {
	cases := []string{
		`{"data": "cifar"}`,
		`{"neurons": -3}`,
		`{"rule": "magic"}`,
		`{"preset": "Q9.9"}`,
		`{"rounding": "banker"}`,
		`{"min_hz": 50, "max_hz": 10}`,
		`{"train_images": 0}`,
		`{"label_images": -1}`,
		`{"infer_images": -200}`,
		`{"workers": -1}`,
		`{"tlearn_ms": -100}`,
		`{"tinh_ms": -5}`,
		`{"spike_amp": -0.5}`,
		`{"tau_syn_ms": -1}`,
		`{"dt_ms": -0.1}`,
		`{"min_hz": "NaN"}`,
		`{not json`,
	}
	for _, c := range cases {
		if _, err := Parse([]byte(c)); err == nil {
			t.Errorf("accepted %s", c)
		}
	}
}

// NaN and Inf cannot be written in JSON, but File values can also be built
// in code and validated directly.
func TestValidateRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f := Default()
		f.TLearnMS = v
		if err := f.Validate(); err == nil {
			t.Errorf("tlearn_ms %v accepted", v)
		}
		f = Default()
		f.MaxHz = v
		if err := f.Validate(); err == nil {
			t.Errorf("max_hz %v accepted", v)
		}
		f = Default()
		f.DTms = v
		if err := f.Validate(); err == nil {
			t.Errorf("dt_ms %v accepted", v)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	f := Default()
	f.Neurons = 77
	f.Preset = "8bit"
	f.Rounding = "truncation"
	f.MaxHz = 60
	path := filepath.Join(t.TempDir(), "run.json")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != f {
		t.Fatalf("round trip: %+v != %+v", got, f)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestResolveBuildsConfigs(t *testing.T) {
	f := Default()
	f.Preset = "8bit"
	f.Rounding = "nearest"
	f.TInhMS = 12
	f.SpikeAmp = 0.9
	f.MaxHz = 44
	f.TLearnMS = 250
	f.Workers = 2
	res, err := f.Resolve(784)
	if err != nil {
		t.Fatal(err)
	}
	if res.Net.NumInputs != 784 || res.Net.NumNeurons != f.Neurons {
		t.Fatalf("geometry %d×%d", res.Net.NumInputs, res.Net.NumNeurons)
	}
	if res.Net.Syn.Format != fixed.Q1p7 || res.Net.Syn.Rounding != fixed.Nearest {
		t.Fatalf("synapse config %v/%v", res.Net.Syn.Format, res.Net.Syn.Rounding)
	}
	if res.Net.TInhMS != 12 || res.Net.SpikeAmp != 0.9 {
		t.Fatalf("electrical overrides lost: %+v", res.Net)
	}
	if res.Learn.Control.Band.MaxHz != 44 || res.Learn.Control.TLearnMS != 250 {
		t.Fatalf("control overrides lost: %+v", res.Learn.Control)
	}
	if res.Workers != 2 {
		t.Fatalf("workers %d", res.Workers)
	}
}

func TestResolveHighFreqPreset(t *testing.T) {
	f := Default()
	f.Preset = "highfreq"
	res, err := f.Resolve(784)
	if err != nil {
		t.Fatal(err)
	}
	if res.Learn.Control.TLearnMS != 100 || res.Learn.Control.Band.MaxHz != 78 {
		t.Fatalf("highfreq control %+v", res.Learn.Control)
	}
}

func TestResolveRejectsInvalid(t *testing.T) {
	f := Default()
	f.Neurons = 0
	if _, err := f.Resolve(784); err == nil {
		t.Error("invalid file resolved")
	}
	f = Default()
	if _, err := f.Resolve(0); err == nil {
		t.Error("zero inputs resolved")
	}
}

func TestSaveIsIndentedJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := Default().Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "\n  \"data\"") {
		t.Errorf("not indented: %q", raw[:40])
	}
}

// TestResolveMatchesPresetConfig pins Model.Resolve to its definition: for
// every preset, rule and override, the network config is
// network.DefaultConfig over the preset's Table I row with the rule,
// rounding and seed applied, and the control is the preset's operating
// point, each with the override on top.
func TestResolveMatchesPresetConfig(t *testing.T) {
	overrides := []struct {
		name  string
		model func(*Model)
		want  func(*synapse.Config, *encode.Control)
	}{
		{"none", func(*Model) {}, func(*synapse.Config, *encode.Control) {}},
		{"rounding",
			func(m *Model) { m.Rounding = "truncation" },
			func(syn *synapse.Config, _ *encode.Control) { syn.Rounding = fixed.Truncate }},
		{"tlearn",
			func(m *Model) { m.TLearnMS = 40 },
			func(_ *synapse.Config, ctl *encode.Control) { ctl.TLearnMS = 40 }},
	}
	for _, p := range synapse.PresetNames() {
		for _, kind := range []synapse.RuleKind{synapse.Deterministic, synapse.Stochastic} {
			for _, ov := range overrides {
				t.Run(fmt.Sprintf("%s/%v/%s", p, kind, ov.name), func(t *testing.T) {
					syn, wantCtl, err := synapse.PresetConfig(p, kind)
					if err != nil {
						t.Fatal(err)
					}
					syn.Seed = 5
					ov.want(&syn, &wantCtl)
					wantCfg := network.DefaultConfig(16, 3, syn)

					m := Model{Rule: kind.String(), Preset: string(p), Seed: 5}
					ov.model(&m)
					cfg, ctl, err := m.Resolve(16, 3)
					if err != nil {
						t.Fatal(err)
					}
					if cfg != wantCfg {
						t.Errorf("network config:\ngot  %+v\nwant %+v", cfg, wantCfg)
					}
					if ctl != wantCtl {
						t.Errorf("control: got %+v, want %+v", ctl, wantCtl)
					}
				})
			}
		}
	}
}
