// lowprecision reproduces the paper's §IV-D claim: stochastic STDP keeps
// learning even with 2-bit synapse conductances (Q0.2), while the
// deterministic baseline collapses — its synapses slam between the
// quantization rails and memory is lost. It also compares the three
// rounding options of Table II at one precision.
package main

import (
	"fmt"
	"log"

	"parallelspikesim/internal/config"
	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/fixed"
	"parallelspikesim/internal/learn"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/synapse"
)

func run(rule synapse.RuleKind, preset synapse.Preset, rounding fixed.Rounding,
	train, test *dataset.Dataset) float64 {
	m := config.Model{
		Rule:     rule.String(),
		Preset:   string(preset),
		Rounding: rounding.String(),
		Seed:     7,
	}
	cfg, ctl, err := m.Resolve(train.Pixels(), 64)
	if err != nil {
		log.Fatal(err)
	}
	net, err := network.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	opts := learn.DefaultOptions()
	opts.Control = ctl
	res, err := learn.Run(net, opts, train, test, 150)
	if err != nil {
		log.Fatal(err)
	}
	return res.Accuracy
}

func main() {
	train := dataset.SynthDigits(1500, 1)
	test := dataset.SynthDigits(450, 2)

	fmt.Println("2-bit (Q0.2) learning, stochastic rounding:")
	for _, rule := range []synapse.RuleKind{synapse.Deterministic, synapse.Stochastic} {
		acc := run(rule, synapse.Preset2Bit, fixed.Stochastic, train, test)
		fmt.Printf("  %-13s %.1f%%\n", rule, 100*acc)
	}

	fmt.Println("\nQ1.7 (8-bit) stochastic STDP across rounding options (Table II column sweep):")
	for _, rounding := range []fixed.Rounding{fixed.Truncate, fixed.Nearest, fixed.Stochastic} {
		acc := run(synapse.Stochastic, synapse.Preset8Bit, rounding, train, test)
		fmt.Printf("  %-11s %.1f%%\n", rounding, 100*acc)
	}
}
