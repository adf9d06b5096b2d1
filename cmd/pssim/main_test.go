package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"parallelspikesim/internal/config"
	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/fixed"
	"parallelspikesim/internal/synapse"
)

func parse(t *testing.T, args ...string) options {
	t.Helper()
	o, err := parseOptions(flag.NewFlagSet("pssim", flag.ContinueOnError), args)
	if err != nil {
		t.Fatalf("parseOptions(%q): %v", args, err)
	}
	return o
}

func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// Every key of a -config file reaches the network config and control the
// run trains with, and -format still applies on top.
func TestConfigFileFieldsReachTheRun(t *testing.T) {
	path := writeConfig(t, `{
		"preset": "8bit", "rule": "deterministic", "rounding": "truncation",
		"neurons": 13, "workers": 1, "seed": 11,
		"min_hz": 10, "max_hz": 40, "tlearn_ms": 150,
		"tinh_ms": 20, "spike_amp": 0.8, "tau_syn_ms": 6, "dt_ms": 0.5
	}`)
	o := parse(t, "-config", path, "-format", "q1.15")
	res, err := o.resolve(784)
	if err != nil {
		t.Fatal(err)
	}
	if want := (encode.Control{Band: encode.Band{MinHz: 10, MaxHz: 40}, TLearnMS: 150}); res.Learn.Control != want {
		t.Errorf("control %+v, want %+v", res.Learn.Control, want)
	}
	net := res.Net
	if net.TInhMS != 20 || net.SpikeAmp != 0.8 || net.TauSynMS != 6 || net.DTms != 0.5 {
		t.Errorf("electrical overrides lost: tinh %v amp %v tau_syn %v dt %v",
			net.TInhMS, net.SpikeAmp, net.TauSynMS, net.DTms)
	}
	if net.NumInputs != 784 || net.NumNeurons != 13 || net.Seed != 11 || net.Syn.Seed != 11 {
		t.Errorf("geometry/seed %d×%d seed %d/%d", net.NumInputs, net.NumNeurons, net.Seed, net.Syn.Seed)
	}
	if net.Syn.Kind != synapse.Deterministic || net.Syn.Rounding != fixed.Truncate || net.Syn.Format != fixed.Q1p15 {
		t.Errorf("synapse %v/%v/%v", net.Syn.Kind, net.Syn.Rounding, net.Syn.Format)
	}
	if res.Workers != 1 {
		t.Errorf("workers %d", res.Workers)
	}
}

// The flag defaults are the config defaults, and flags resolve exactly as
// the equivalent file does.
func TestFlagsResolveLikeConfig(t *testing.T) {
	if o := parse(t); o.file != config.Default() {
		t.Fatalf("flag defaults %+v, want config.Default() %+v", o.file, config.Default())
	}
	o := parse(t, "-preset", "highfreq", "-tlearn", "40", "-seed", "9", "-neurons", "5")
	got, err := o.resolve(784)
	if err != nil {
		t.Fatal(err)
	}
	f := config.Default()
	f.Preset, f.TLearnMS, f.Seed, f.Neurons = "highfreq", 40, 9, 5
	want, err := f.Resolve(784)
	if err != nil {
		t.Fatal(err)
	}
	if got.Net != want.Net || got.Learn != want.Learn {
		t.Fatalf("flags resolved to %+v, file to %+v", got, want)
	}
	if ctl := got.Learn.Control; ctl.Band != encode.HighFrequencyBand() || ctl.TLearnMS != 40 {
		t.Fatalf("highfreq control %+v", ctl)
	}
	if _, err := parse(t, "-format", "q9").resolve(784); err == nil {
		t.Error("bad -format accepted")
	}
}

func TestRunTrainsFromConfig(t *testing.T) {
	dir := t.TempDir()
	path := writeConfig(t, `{"train_images": 6, "label_images": 4, "infer_images": 4,
		"neurons": 4, "workers": 1, "tlearn_ms": 20}`)
	model := filepath.Join(dir, "model.pss")
	o := parse(t, "-config", path, "-save", model, "-progress=false")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(model); err != nil {
		t.Fatalf("no snapshot saved: %v", err)
	}
	if err := run(parse(t, "-config", path, "-load", model)); err != nil {
		t.Fatalf("reload: %v", err)
	}

	if err := run(parse(t, "-data", "cifar")); err == nil {
		t.Error("unknown data set accepted")
	}
	if err := run(parse(t, "-resume")); err == nil {
		t.Error("-resume without -checkpoint accepted")
	}
}
