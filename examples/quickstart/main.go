// Quickstart: train a small spiking network with stochastic STDP on the
// synthetic digit set and measure inference accuracy — the whole pipeline
// in ~30 lines of API: a config.Model resolves into the network's
// configuration and frequency control, network.New builds the network and
// learn.New the trainer that runs it.
package main

import (
	"fmt"
	"log"

	"parallelspikesim/internal/config"
	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/learn"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/synapse"
)

func main() {
	train := dataset.SynthDigits(800, 1) // training images
	test := dataset.SynthDigits(300, 2)  // labeling + inference images

	m := config.Model{
		Rule:   synapse.Stochastic.String(),
		Preset: string(synapse.PresetFloat),
		Seed:   42,
	}
	cfg, ctl, err := m.Resolve(train.Pixels(), 64) // 64 first-layer neurons
	if err != nil {
		log.Fatal(err)
	}
	net, err := network.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	opts := learn.DefaultOptions()
	opts.Control = ctl
	opts.NumClasses = train.NumClasses
	tr, err := learn.New(net, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("training 800 images of synthetic digits…")
	err = tr.Train(train, func(i int, movingErr float64) {
		if (i+1)%200 == 0 {
			fmt.Printf("  %4d images, moving error %.0f%%\n", i+1, 100*movingErr)
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	// The first 150 test images label the neurons; the rest are inferred.
	labelSet, inferSet := test.LabelInferSplit(150)
	model, err := tr.Label(labelSet)
	if err != nil {
		log.Fatal(err)
	}
	conf, err := tr.Evaluate(model, inferSet)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inference accuracy: %.1f%% (%d/%d)\n",
		100*conf.Accuracy(), conf.Correct(), conf.Total())
}
