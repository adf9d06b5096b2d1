// Package core is the top-level ParallelSpikeSim API: it wires the Table I
// presets, the network architecture of Fig 3, the execution engine and the
// learning pipeline into one simulator object. Examples and command-line
// tools build on this package; the specialized sub-packages remain usable
// directly for finer control.
//
// Typical use:
//
//	sim, err := core.New(core.Options{Inputs: 784, Neurons: 100})
//	defer sim.Close()
//	sim.Train(trainSet, nil)
//	res, err := sim.Evaluate(testSet, 1000)
package core

import (
	"fmt"

	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/engine"
	"parallelspikesim/internal/fixed"
	"parallelspikesim/internal/learn"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/obs"
	"parallelspikesim/internal/stats"
	"parallelspikesim/internal/synapse"
)

// Options selects a simulator configuration. The zero value of each field
// means "paper default".
type Options struct {
	Inputs  int // input spike trains (pixels); required
	Neurons int // first-layer size; required

	Rule   synapse.RuleKind // Deterministic (baseline) or Stochastic
	Preset synapse.Preset   // Table I row; "" = float32

	// Rounding overrides the preset's rounding option (low-precision
	// learning only). Leave nil for the preset default.
	Rounding *fixed.Rounding

	// HighFrequency selects the 5–78 Hz / 100 ms fast-learning operating
	// point (§IV-C) instead of the 1–22 Hz / 500 ms baseline. The
	// PresetHighFreq row implies it.
	HighFrequency bool

	// TLearnMS overrides the per-image presentation time (0 = preset).
	TLearnMS float64

	// Workers sets engine parallelism: 0 = GOMAXPROCS, 1 = sequential.
	Workers int

	// Plasticity selects the STDP scheduling strategy: DensePlasticity
	// (the default, eager column updates) or LazyPlasticity (deferred
	// event-driven row flushes — bit-identical, faster on plasticity-heavy
	// workloads; DESIGN.md §11).
	Plasticity network.PlasticityMode

	// Classes is the label arity (0 = 10, the MNIST family).
	Classes int

	// Observer attaches an observability registry: per-phase timings,
	// spike/update counters, engine utilization and trainer latencies are
	// recorded into it. Nil (the default) disables instrumentation at
	// zero cost.
	Observer *obs.Registry

	Seed uint64
}

// Simulator is a ready-to-train ParallelSpikeSim instance.
type Simulator struct {
	Net     *network.Network
	Trainer *learn.Trainer
	Opts    learn.Options

	exec   engine.Executor
	closed bool
}

// New builds a simulator from options.
func New(o Options) (*Simulator, error) {
	if o.Inputs <= 0 || o.Neurons <= 0 {
		return nil, fmt.Errorf("core: Inputs (%d) and Neurons (%d) are required", o.Inputs, o.Neurons)
	}
	preset := o.Preset
	if preset == "" {
		preset = synapse.PresetFloat
	}
	syn, ctl, err := synapse.PresetConfig(preset, o.Rule)
	if err != nil {
		return nil, err
	}
	if o.Rounding != nil {
		syn.Rounding = *o.Rounding
	}
	syn.Seed = o.Seed

	cfg := network.DefaultConfig(o.Inputs, o.Neurons, syn)

	workers := o.Workers
	if workers == 0 {
		workers = engine.Auto
	}
	exec := engine.New(workers)
	engine.Instrument(exec, o.Observer)
	net, err := network.New(cfg,
		network.WithExecutor(exec),
		network.WithObserver(o.Observer),
		network.WithPlasticity(o.Plasticity))
	if err != nil {
		exec.Close()
		return nil, err
	}

	opts := learn.DefaultOptions()
	opts.Control = ctl
	if o.HighFrequency {
		opts.Control = encode.HighFrequencyControl()
	}
	if o.TLearnMS > 0 {
		opts.Control.TLearnMS = o.TLearnMS
	}

	opts.NumClasses = o.Classes
	tr, err := learn.New(net, opts)
	if err != nil {
		exec.Close()
		return nil, err
	}
	return &Simulator{Net: net, Trainer: tr, Opts: opts, exec: exec}, nil
}

// Close releases the worker pool. The simulator must not be used after.
func (s *Simulator) Close() {
	if !s.closed {
		s.exec.Close()
		s.closed = true
	}
}

// Train runs unsupervised STDP learning over the data set. progress may be
// nil.
func (s *Simulator) Train(ds *dataset.Dataset, progress func(i int, movingError float64)) error {
	return s.Trainer.Train(ds, progress)
}

// Evaluate labels the neurons with the first labelCount test images and
// measures inference accuracy on the rest (the paper's protocol).
func (s *Simulator) Evaluate(test *dataset.Dataset, labelCount int) (*stats.Confusion, error) {
	labelSet, inferSet := test.LabelInferSplit(labelCount)
	model, err := s.Trainer.Label(labelSet)
	if err != nil {
		return nil, err
	}
	return s.Trainer.Evaluate(model, inferSet)
}

// ReceptiveField copies neuron n's incoming conductances (its learned
// pattern, as visualized in Figs 5/8a).
func (s *Simulator) ReceptiveField(n int) []float64 {
	rf := make([]float64, s.Net.Cfg.NumInputs)
	s.Net.Syn.Column(n, rf)
	return rf
}

// MovingErrorCurve returns the training-time moving error rate after each
// image (Fig 8c).
func (s *Simulator) MovingErrorCurve() []float64 {
	return s.Trainer.MovingErrorCurve()
}

// Metrics returns the observability registry the simulator was built with
// (nil when Options.Observer was not set).
func (s *Simulator) Metrics() *obs.Registry {
	return s.Net.Observer()
}
