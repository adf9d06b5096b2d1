// highfreq reproduces the paper's §IV-C fast-learning trade-off: boosting
// the input spike-train band from 1–22 Hz to 5–78 Hz lets each image be
// presented for 100 ms instead of 500 ms. With the short-term stochastic
// STDP parameterization the network still learns; total learning wall time
// drops several-fold at a modest accuracy cost.
package main

import (
	"fmt"
	"log"
	"time"

	"parallelspikesim/internal/config"
	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/learn"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/synapse"
)

func main() {
	train := dataset.SynthDigits(2000, 1)
	test := dataset.SynthDigits(500, 2)

	// The highfreq preset carries its own operating point (5–78 Hz,
	// 100 ms) and short-term STDP parameters; Resolve returns both.
	configs := []struct {
		name  string
		model config.Model
	}{
		{"baseline stochastic (1-22 Hz, 500 ms/image)", config.Model{
			Rule: synapse.Stochastic.String(), Preset: string(synapse.PresetFloat), Seed: 7,
		}},
		{"high-frequency stochastic (5-78 Hz, 100 ms/image)", config.Model{
			Rule: synapse.Stochastic.String(), Preset: string(synapse.PresetHighFreq), Seed: 7,
		}},
	}

	var baseWall time.Duration
	var baseAcc float64
	for i, c := range configs {
		cfg, ctl, err := c.model.Resolve(train.Pixels(), 64)
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
		wall := res.TrainWall
		fmt.Printf("%s:\n  accuracy %.1f%%, learning wall time %v\n",
			c.name, 100*res.Accuracy, wall.Round(time.Millisecond))
		if i == 0 {
			baseWall, baseAcc = wall, res.Accuracy
		} else {
			fmt.Printf("  → %.1fx faster than baseline, %.1f accuracy points traded\n",
				float64(baseWall)/float64(wall), 100*(baseAcc-res.Accuracy))
		}
	}
}
