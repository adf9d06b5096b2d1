package config_test

import (
	"fmt"

	"parallelspikesim/internal/config"
	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/fixed"
	"parallelspikesim/internal/learn"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/synapse"
)

// Example shows the whole pipeline: resolve a model into a network
// configuration and frequency control, build the network, train it with
// unsupervised stochastic STDP, then label and evaluate.
func Example() {
	train := dataset.SynthDigits(30, 1)
	test := dataset.SynthDigits(20, 2)

	m := config.Model{
		Rule:     synapse.Stochastic.String(),
		Preset:   string(synapse.PresetFloat),
		TLearnMS: 60, // tiny presentation so the example runs instantly
		Seed:     42,
	}
	cfg, ctl, err := m.Resolve(train.Pixels(), 10)
	if err != nil {
		panic(err)
	}
	net, err := network.New(cfg)
	if err != nil {
		panic(err)
	}
	opts := learn.DefaultOptions()
	opts.Control = ctl
	res, err := learn.Run(net, opts, train, test, 10)
	if err != nil {
		panic(err)
	}
	fmt.Println("evaluated images:", res.Confusion.Total())
	// Output: evaluated images: 10
}

// Example_lowPrecision configures 2-bit synapses with stochastic rounding —
// the paper's extreme operating point.
func Example_lowPrecision() {
	m := config.Model{
		Rule:     synapse.Stochastic.String(),
		Preset:   string(synapse.Preset2Bit),
		Rounding: fixed.Stochastic.String(),
		Seed:     1,
	}
	cfg, _, err := m.Resolve(784, 8)
	if err != nil {
		panic(err)
	}
	fmt.Println(cfg.Syn.Format, cfg.Syn.Rounding)
	// Output: Q0.2 stochastic
}
