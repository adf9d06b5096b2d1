// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV). Each experiment is a pure function from a Scale (how
// big a run) to structured rows plus a text rendering, so the same code
// backs the unit tests (tiny scale), the root benchmarks (default scale)
// and cmd/psbench (any scale up to the paper's).
//
// See DESIGN.md §4 for the experiment ↔ paper-artifact index.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/fixed"
	"parallelspikesim/internal/learn"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/synapse"
)

// Scale sets the size of an experiment run. The paper's full scale (1000
// neurons, 60 000 training images, 1 000 labeling + 9 000 inference images)
// trains in minutes (see PaperScale); the default scale preserves every
// qualitative shape in less.
type Scale struct {
	Neurons     int
	TrainImages int
	LabelImages int
	InferImages int
	// Workers sizes the worker pool of the Fig 4 activity mirror (and
	// psbench's lazy-plasticity probes): 0 = GOMAXPROCS, 1 = sequential.
	// Training runs every step inline (DESIGN.md §16.4), so it sizes no
	// training run.
	Workers int
	Seed    uint64
}

// TestScale is the smoke-test size: seconds, shapes not guaranteed.
func TestScale() Scale {
	return Scale{Neurons: 20, TrainImages: 60, LabelImages: 30, InferImages: 30, Workers: 1, Seed: 7}
}

// DefaultScale is the benchmark size: minutes, qualitative shapes hold.
func DefaultScale() Scale {
	return Scale{Neurons: 80, TrainImages: 2400, LabelImages: 300, InferImages: 400, Workers: 0, Seed: 7}
}

// PaperScale is the paper's full workload. Extrapolated from 300-image
// runs at 1000 neurons on a 2-vCPU VM, its 60 000 training images take
// about 2 minutes at the 5–78 Hz / 100 ms Q1.7 operating point and about
// 14 minutes for the 1–22 Hz / 500 ms float32 baseline, boosts included.
func PaperScale() Scale {
	return Scale{Neurons: 1000, TrainImages: 60000, LabelImages: 1000, InferImages: 9000, Workers: 0, Seed: 7}
}

// Validate checks the scale.
func (s Scale) Validate() error {
	if s.Neurons <= 0 || s.TrainImages <= 0 || s.LabelImages <= 0 || s.InferImages <= 0 {
		return fmt.Errorf("experiments: degenerate scale %+v", s)
	}
	return nil
}

// DataKind selects the evaluation data set.
type DataKind string

const (
	// Digits is the simple set (MNIST stand-in).
	Digits DataKind = "digits"
	// Fashion is the complex, feature-rich set (Fashion-MNIST stand-in).
	Fashion DataKind = "fashion"
)

// makeData draws the train and test splits for a data kind. Train and test
// use different generator seeds, mirroring the disjoint MNIST splits.
func makeData(kind DataKind, s Scale) (train, test *dataset.Dataset, err error) {
	n := s.TrainImages
	m := s.LabelImages + s.InferImages
	switch kind {
	case Digits:
		return dataset.SynthDigits(n, s.Seed), dataset.SynthDigits(m, s.Seed+1000), nil
	case Fashion:
		return dataset.SynthFashion(n, s.Seed), dataset.SynthFashion(m, s.Seed+1000), nil
	default:
		return nil, nil, fmt.Errorf("experiments: unknown data kind %q", kind)
	}
}

// RunSpec names one pipeline configuration.
type RunSpec struct {
	Data     DataKind
	Rule     synapse.RuleKind
	Preset   synapse.Preset
	Rounding *fixed.Rounding // nil = preset default
	Control  *encode.Control // nil = preset default

	// Mutate, if set, adjusts the network configuration before
	// construction — the hook the ablation sweeps use.
	Mutate func(*network.Config)
}

// Outcome is the result of one full train→label→infer pipeline run.
type Outcome struct {
	Spec        RunSpec
	Accuracy    float64
	TrainWall   time.Duration
	EvalWall    time.Duration
	MovingError []float64
	BoostCount  int
	Net         *network.Network // trained network (for map/histogram dumps)
}

// runPipeline executes one configuration at the given scale.
func runPipeline(spec RunSpec, s Scale) (*Outcome, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	train, test, err := makeData(spec.Data, s)
	if err != nil {
		return nil, err
	}
	syn, ctl, err := synapse.PresetConfig(spec.Preset, spec.Rule)
	if err != nil {
		return nil, err
	}
	if spec.Rounding != nil {
		syn.Rounding = *spec.Rounding
	}
	syn.Seed = s.Seed

	cfg := network.DefaultConfig(train.Pixels(), s.Neurons, syn)
	if spec.Mutate != nil {
		spec.Mutate(&cfg)
	}
	net, err := network.New(cfg)
	if err != nil {
		return nil, err
	}
	opts := learn.DefaultOptions()
	opts.Control = ctl
	if spec.Control != nil {
		opts.Control = *spec.Control
	}
	res, err := learn.Run(net, opts, train, test, s.LabelImages)
	if err != nil {
		return nil, err
	}
	return &Outcome{
		Spec:        spec,
		Accuracy:    res.Accuracy,
		TrainWall:   res.TrainWall,
		EvalWall:    res.EvalWall,
		MovingError: res.MovingError,
		BoostCount:  res.BoostCount,
		Net:         net,
	}, nil
}

// renderTable lays out rows of columns with padded widths.
func renderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		b.WriteString(strings.Repeat("-", w))
		if i != len(widths)-1 {
			b.WriteString("  ")
		}
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
