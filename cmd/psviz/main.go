// Command psviz trains a small network and dumps its artifacts to files:
// conductance maps (ASCII and PGM, the Fig 5 / Fig 8a visualizations) and
// input/neuron spike rasters (Fig 6a).
//
// Example:
//
//	psviz -out ./viz -data fashion -rule stochastic -train 1500
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/learn"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/synapse"
	"parallelspikesim/internal/viz"
)

func main() {
	var (
		out     = flag.String("out", "viz-out", "output directory")
		data    = flag.String("data", "digits", "digits | fashion")
		rule    = flag.String("rule", "stochastic", "deterministic | stochastic")
		neurons = flag.Int("neurons", 64, "first-layer neurons")
		nTrain  = flag.Int("train", 1000, "training images")
		maps    = flag.Int("maps", 16, "conductance maps to dump")
		seed    = flag.Uint64("seed", 7, "master seed")
	)
	flag.Parse()
	if err := run(*out, *data, *rule, *neurons, *nTrain, *maps, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "psviz:", err)
		os.Exit(1)
	}
}

func run(out, data, rule string, neurons, nTrain, maps int, seed uint64) error {
	kind, err := synapse.ParseRule(rule)
	if err != nil {
		return err
	}
	var train *dataset.Dataset
	switch data {
	case "digits":
		train = dataset.SynthDigits(nTrain, seed)
	case "fashion":
		train = dataset.SynthFashion(nTrain, seed)
	default:
		return fmt.Errorf("unknown data set %q", data)
	}

	syn, ctl, err := synapse.PresetConfig(synapse.PresetFloat, kind)
	if err != nil {
		return err
	}
	syn.Seed = seed
	cfg := network.DefaultConfig(train.Pixels(), neurons, syn)
	net, err := network.New(cfg)
	if err != nil {
		return err
	}
	opts := learn.DefaultOptions()
	opts.Control = ctl
	opts.NumClasses = train.NumClasses
	tr, err := learn.New(net, opts)
	if err != nil {
		return err
	}
	fmt.Printf("psviz: training %s/%s on %d images…\n", data, rule, train.Len())
	if err := tr.Train(train, nil); err != nil {
		return err
	}

	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	// Conductance maps.
	rf := make([]float64, train.Pixels())
	var tiles []string
	for n := 0; n < maps && n < neurons; n++ {
		net.Syn.Column(n, rf)
		ascii, err := viz.ConductanceASCII(rf, train.Width, train.Height)
		if err != nil {
			return err
		}
		tiles = append(tiles, ascii)
		pgm, err := viz.ConductancePGM(rf, train.Width, train.Height)
		if err != nil {
			return err
		}
		name := filepath.Join(out, fmt.Sprintf("rf_%03d.pgm", n))
		if err := os.WriteFile(name, pgm, 0o644); err != nil {
			return err
		}
	}
	if err := os.WriteFile(filepath.Join(out, "maps.txt"), []byte(viz.TileGrid(tiles, 4)), 0o644); err != nil {
		return err
	}

	// Moving-error curve as SVG (Fig 8c style).
	curve := tr.MovingErrorCurve()
	xs := make([]float64, len(curve))
	for i := range xs {
		xs[i] = float64(i)
	}
	svg, err := viz.SVGChart("moving error rate", "training images", "error",
		[]viz.Series{{Name: rule, X: xs, Y: curve}}, 720, 400)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, "moving_error.svg"), []byte(svg), 0o644); err != nil {
		return err
	}

	// Rasters: one more presentation with recording enabled.
	rec := &network.Recorder{}
	if _, err := net.Present(train.Images[0], opts.Control, false, rec); err != nil {
		return err
	}
	raster := "input spikes:\n" +
		viz.RasterASCII(rec.InputSpikes, train.Pixels(), opts.Control.TLearnMS, opts.Control.TLearnMS/100, 48) +
		"\nneuron spikes:\n" +
		viz.RasterASCII(rec.NeuronSpikes, neurons, opts.Control.TLearnMS, opts.Control.TLearnMS/100, 48)
	if err := os.WriteFile(filepath.Join(out, "raster.txt"), []byte(raster), 0o644); err != nil {
		return err
	}

	fmt.Printf("psviz: wrote %d PGM maps, maps.txt, moving_error.svg and raster.txt to %s\n", len(tiles), out)
	return nil
}
