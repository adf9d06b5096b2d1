// fashion_learning reproduces the paper's headline §IV-B result on the
// complex, feature-rich data set: deterministic STDP collapses onto the
// features shared between apparel classes, while stochastic STDP still
// separates them. Compare the accuracies and the receptive-field maps the
// two rules produce.
package main

import (
	"fmt"
	"log"

	"parallelspikesim/internal/config"
	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/learn"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/synapse"
	"parallelspikesim/internal/viz"
)

func main() {
	train := dataset.SynthFashion(2000, 1)
	test := dataset.SynthFashion(600, 2)
	names := dataset.FashionClassNames()
	fmt.Printf("synthetic fashion set: %d classes (%v …)\n", len(names), names[:4])

	accs := map[synapse.RuleKind]float64{}
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
		conf := res.Confusion
		accs[rule] = conf.Accuracy()
		fmt.Printf("\n%s STDP on fashion: accuracy %.1f%%\n", rule, 100*conf.Accuracy())
		fmt.Println("per-class recall:")
		for c, r := range conf.PerClassRecall() {
			fmt.Printf("  %-10s %.0f%%\n", names[c], 100*r)
		}
		var tiles []string
		for n := 0; n < 3; n++ {
			rf := make([]float64, cfg.NumInputs)
			net.Syn.Column(n, rf)
			tile, err := viz.ConductanceASCII(rf, train.Width, train.Height)
			if err != nil {
				log.Fatal(err)
			}
			tiles = append(tiles, tile)
		}
		fmt.Println(viz.TileGrid(tiles, 3))
	}

	fmt.Printf("stochastic − deterministic accuracy gap on the complex set: %+.1f points\n",
		100*(accs[synapse.Stochastic]-accs[synapse.Deterministic]))
}
