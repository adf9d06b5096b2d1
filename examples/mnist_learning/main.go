// mnist_learning reproduces the paper's §IV-A/B digit experiment: the
// deterministic baseline versus stochastic STDP on the simple data set,
// with conductance-map dumps. If a real MNIST directory is passed as the
// first argument, it is used instead of the synthetic stand-in.
//
// Usage:
//
//	go run ./examples/mnist_learning [mnist-dir]
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"parallelspikesim/internal/config"
	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/learn"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/synapse"
	"parallelspikesim/internal/viz"
)

func main() {
	var train, test *dataset.Dataset
	if len(os.Args) > 1 {
		var err error
		train, test, err = dataset.LoadMNISTDir(os.Args[1])
		if err != nil {
			log.Fatal(err)
		}
		train = train.Subset(0, 3000) // keep the example quick
		test = test.Subset(0, 600)
		fmt.Println("using real MNIST from", os.Args[1])
	} else {
		train = dataset.SynthDigits(2000, 1)
		test = dataset.SynthDigits(600, 2)
		fmt.Println("using the synthetic digit stand-in (pass an MNIST dir to use real data)")
	}

	for _, rule := range []synapse.RuleKind{synapse.Deterministic, synapse.Stochastic} {
		m := config.Model{Rule: rule.String(), Preset: string(synapse.PresetFloat), Seed: 7}
		cfg, ctl, err := m.Resolve(train.Pixels(), 80)
		if err != nil {
			log.Fatal(err)
		}
		net, err := network.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		opts := learn.DefaultOptions()
		opts.Control = ctl
		res, err := learn.Run(net, opts, train, test, 200)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s STDP: accuracy %.1f%% in %v\n",
			rule, 100*res.Accuracy, (res.TrainWall + res.EvalWall).Round(time.Second))

		// Show two learned receptive fields (the Fig 5a maps).
		var tiles []string
		for n := 0; n < 2; n++ {
			rf := make([]float64, cfg.NumInputs)
			net.Syn.Column(n, rf)
			tile, err := viz.ConductanceASCII(rf, train.Width, train.Height)
			if err != nil {
				log.Fatal(err)
			}
			tiles = append(tiles, tile)
		}
		fmt.Println(viz.TileGrid(tiles, 2))
	}
}
