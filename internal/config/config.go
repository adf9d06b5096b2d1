// Package config reads and writes simulation-environment files. The
// paper's Fig 2 flow has the CPU "construct the simulation environment with
// configuration and input data file"; this package is that configuration
// file: a JSON document selecting the data set, network geometry, learning
// rule, precision, rounding, frequency control and evaluation parallelism,
// with validation and defaulting.
//
// It is also where a run is resolved. Model, the part of a file that fixes
// how a network learns and presents images, is what pssim (from a file or
// from its flags), psserve (from its flags, once per snapshot geometry),
// psbench's instrumented probe and the examples turn into a network.Config
// and an encode.Control through Model.Resolve; network.New and learn.New
// (or learn.Run) take it from there. Every field is obeyed; a tool's own
// flags, such as pssim's -format, apply after resolution.
//
// Typical use:
//
//	m := config.Model{Rule: "stochastic", Preset: "float32", Seed: 7}
//	cfg, ctl, err := m.Resolve(784, 100)
//	net, err := network.New(cfg)
//	opts := learn.DefaultOptions()
//	opts.Control = ctl
//	res, err := learn.Run(net, opts, trainSet, testSet, 1000)
package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/fixed"
	"parallelspikesim/internal/learn"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/synapse"
)

// File is the on-disk configuration schema. Zero/omitted fields take the
// paper defaults at Resolve time.
type File struct {
	// Data selects the workload: "digits", "fashion", or a directory of
	// real MNIST IDX files.
	Data     string `json:"data"`
	MNISTDir string `json:"mnist_dir,omitempty"`

	TrainImages int `json:"train_images"`
	LabelImages int `json:"label_images"`
	InferImages int `json:"infer_images"`

	Neurons int `json:"neurons"`

	Model

	// Workers sizes the worker pool of the held-out evaluation's batch
	// fan-out (0 = GOMAXPROCS, 1 = sequential). Training runs every step
	// inline and uses no pool.
	Workers int `json:"workers,omitempty"`
}

// Model is the part of a file that fixes how a network learns and
// presents images: everything a trained model must be rebuilt with to
// answer as it was evaluated. Its keys sit at the top level of the file.
type Model struct {
	Rule     string `json:"rule"`               // "deterministic" | "stochastic"
	Preset   string `json:"preset"`             // Table I row
	Rounding string `json:"rounding,omitempty"` // override

	// Frequency control (0 = preset default).
	MinHz    float64 `json:"min_hz,omitempty"`
	MaxHz    float64 `json:"max_hz,omitempty"`
	TLearnMS float64 `json:"tlearn_ms,omitempty"`

	// Electrical overrides (0 = DefaultConfig values).
	TInhMS   float64 `json:"tinh_ms,omitempty"`
	SpikeAmp float64 `json:"spike_amp,omitempty"`
	TauSynMS float64 `json:"tau_syn_ms,omitempty"`
	DTms     float64 `json:"dt_ms,omitempty"`

	Seed uint64 `json:"seed,omitempty"`
}

// Default returns the baseline configuration: stochastic STDP at float32 on
// the synthetic digits, paper bands.
func Default() File {
	return File{
		Data:        "digits",
		TrainImages: 2000,
		LabelImages: 300,
		InferImages: 500,
		Neurons:     100,
		Model:       Model{Rule: "stochastic", Preset: "float32", Seed: 7},
	}
}

// Load parses a configuration file, applying defaults for omitted fields.
func Load(path string) (File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	return Parse(raw)
}

// Parse decodes JSON bytes, applying defaults for omitted fields. Unknown
// fields are rejected to catch typos in experiment configs.
func Parse(raw []byte) (File, error) {
	f := Default()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return File{}, fmt.Errorf("config: %w", err)
	}
	return f, f.Validate()
}

// Save writes the configuration as indented JSON.
func (f File) Save(path string) error {
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// Validate checks field consistency without building anything.
func (f File) Validate() error {
	switch {
	case f.Data != "digits" && f.Data != "fashion" && f.MNISTDir == "":
		return fmt.Errorf("config: data must be digits|fashion (or set mnist_dir), got %q", f.Data)
	case f.TrainImages <= 0 || f.LabelImages <= 0 || f.InferImages <= 0:
		return fmt.Errorf("config: image counts must be positive")
	case f.Neurons <= 0:
		return fmt.Errorf("config: neurons must be positive")
	case f.Workers < 0:
		return fmt.Errorf("config: workers must be non-negative, got %d", f.Workers)
	}
	return f.Model.Validate()
}

// Validate checks the model fields without building anything.
func (m Model) Validate() error {
	_, _, err := m.preset()
	return err
}

// preset checks the fields and returns the preset's Table I row, with the
// rule, rounding and seed applied, and its operating point.
func (m Model) preset() (synapse.Config, encode.Control, error) {
	fail := func(err error) (synapse.Config, encode.Control, error) {
		return synapse.Config{}, encode.Control{}, err
	}
	if m.MinHz < 0 || m.MaxHz < 0 || (m.MaxHz > 0 && m.MinHz > m.MaxHz) {
		return fail(fmt.Errorf("config: bad band [%v, %v]", m.MinHz, m.MaxHz))
	}
	// Overrides use 0 as "take the default", so anything negative or
	// non-finite is a mistake, not a choice.
	for _, v := range []struct {
		name string
		val  float64
	}{
		{"min_hz", m.MinHz}, {"max_hz", m.MaxHz}, {"tlearn_ms", m.TLearnMS},
		{"tinh_ms", m.TInhMS}, {"spike_amp", m.SpikeAmp},
		{"tau_syn_ms", m.TauSynMS}, {"dt_ms", m.DTms},
	} {
		if v.val < 0 || math.IsNaN(v.val) || math.IsInf(v.val, 0) {
			return fail(fmt.Errorf("config: %s must be a non-negative finite number, got %v", v.name, v.val))
		}
	}
	kind, err := synapse.ParseRule(m.Rule)
	if err != nil {
		return fail(err)
	}
	syn, ctl, err := synapse.PresetConfig(synapse.Preset(m.Preset), kind)
	if err != nil {
		return fail(err)
	}
	if m.Rounding != "" {
		if syn.Rounding, err = fixed.ParseRounding(m.Rounding); err != nil {
			return fail(err)
		}
	}
	syn.Seed = m.Seed
	return syn, ctl, nil
}

// Resolved is the fully-constructed run setup.
type Resolved struct {
	Net     network.Config
	Learn   learn.Options
	Workers int
}

// Resolve turns the file into concrete network and pipeline configurations
// for the given input count (pixels per image).
func (f File) Resolve(numInputs int) (Resolved, error) {
	if err := f.Validate(); err != nil {
		return Resolved{}, err
	}
	cfg, ctl, err := f.Model.Resolve(numInputs, f.Neurons)
	if err != nil {
		return Resolved{}, err
	}
	opts := learn.DefaultOptions()
	opts.Control = ctl
	return Resolved{Net: cfg, Learn: opts, Workers: f.Workers}, nil
}

// Resolve builds the network configuration and frequency control the model
// runs with at the given geometry: the preset's Table I row and operating
// point, then every non-zero override.
func (m Model) Resolve(numInputs, numNeurons int) (network.Config, encode.Control, error) {
	syn, ctl, err := m.preset()
	if err != nil {
		return network.Config{}, encode.Control{}, err
	}
	cfg := network.DefaultConfig(numInputs, numNeurons, syn)
	if m.TInhMS > 0 {
		cfg.TInhMS = m.TInhMS
	}
	if m.SpikeAmp > 0 {
		cfg.SpikeAmp = m.SpikeAmp
	}
	if m.TauSynMS > 0 {
		cfg.TauSynMS = m.TauSynMS
	}
	if m.DTms > 0 {
		cfg.DTms = m.DTms
	}
	if m.MinHz > 0 {
		ctl.Band.MinHz = m.MinHz
	}
	if m.MaxHz > 0 {
		ctl.Band.MaxHz = m.MaxHz
	}
	if m.TLearnMS > 0 {
		ctl.TLearnMS = m.TLearnMS
	}
	if err := cfg.Validate(); err != nil {
		return network.Config{}, encode.Control{}, err
	}
	if err := ctl.Validate(); err != nil {
		return network.Config{}, encode.Control{}, err
	}
	return cfg, ctl, nil
}
