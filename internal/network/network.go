// Package network assembles ParallelSpikeSim's unsupervised-learning
// architecture (paper Fig 3): an array of input spike trains (one per
// pixel), an all-to-all plastic conductance matrix into a first layer of
// excitatory LIF neurons, and a second layer of one-to-one inhibition relays
// implementing winner-take-all — when a first-layer neuron spikes, its
// second-layer partner suppresses every *other* first-layer neuron for
// t_inh milliseconds.
//
// Every presentation runs through one Core. It encodes the image into the
// presentation's sparse spike plan — the one place the input-stream seed
// and the start-step keying are derived — then steps one loop: replay the
// step's input spikes from the plan, integrate (decay the synaptic current,
// accumulate the input spikes into it per eq. 3, step the LIF layer per
// eqs. 1–2), then winner-take-all among the threshold crossers. Training
// (Present) hooks into that loop, in an order that keeps STDP
// causality clean: the pre-spike times move before integrate, and each
// post spike applies the learning rule to its whole synapse column at once
// — deterministic eqs. 4–5, or stochastic eq. 6 potentiation and eq. 7
// depression (StochParams.PDepEvent) — as the paper does on a post spike.
// Frozen-weight inference (internal/infer) encodes and steps through the
// same core with no hook, so the two cannot drift apart.
//
// Every step, plasticity included, runs on the presenting goroutine: at
// the paper's operating point a step is a few µs of work, less than a
// worker-pool handoff costs (DESIGN.md §16.4), and dense plasticity beats
// a deferred schedule there (DESIGN.md §11).
package network

import (
	"fmt"

	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/neuron"
	"parallelspikesim/internal/obs"
	"parallelspikesim/internal/rng"
	"parallelspikesim/internal/synapse"
)

// Config describes a full network instance.
type Config struct {
	NumInputs  int // input spike trains (pixels)
	NumNeurons int // first-layer excitatory LIF neurons

	LIF neuron.LIFParams
	Syn synapse.Config

	TInhMS   float64 // winner-take-all inhibition duration t_inh
	SpikeAmp float64 // current injected per pre spike per unit conductance
	TauSynMS float64 // synaptic current trace decay; 0 = instantaneous
	DTms     float64 // integration step

	InitGLo, InitGHi float64 // uniform conductance initialization range

	Seed uint64
}

// DefaultConfig returns a calibrated configuration for the given geometry
// and synapse setup. The electrical constants (SpikeAmp, TauSynMS, TInhMS,
// homeostasis) are tuned so that with the paper's LIF parameters and the
// baseline 1–22 Hz input band, first-layer winners fire at a few tens of Hz
// during a presentation — the regime the paper's learning operates in.
func DefaultConfig(numInputs, numNeurons int, syn synapse.Config) Config {
	lif := neuron.PaperLIF()
	lif.ThetaPlus = 0.02
	lif.ThetaDecayMS = 1e5
	return Config{
		NumInputs:  numInputs,
		NumNeurons: numNeurons,
		LIF:        lif,
		Syn:        syn,
		TInhMS:     30,
		SpikeAmp:   0.6,
		TauSynMS:   4,
		DTms:       1,
		InitGLo:    0.15,
		InitGHi:    0.45,
		Seed:       syn.Seed,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.NumInputs <= 0 || c.NumNeurons <= 0:
		return fmt.Errorf("network: geometry %d inputs × %d neurons", c.NumInputs, c.NumNeurons)
	case c.DTms <= 0:
		return fmt.Errorf("network: DTms %v", c.DTms)
	case c.TInhMS < 0:
		return fmt.Errorf("network: negative TInhMS")
	case c.SpikeAmp <= 0:
		return fmt.Errorf("network: SpikeAmp %v", c.SpikeAmp)
	case c.TauSynMS < 0:
		return fmt.Errorf("network: negative TauSynMS")
	case c.InitGLo < 0 || c.InitGHi < c.InitGLo:
		return fmt.Errorf("network: init range [%v, %v]", c.InitGLo, c.InitGHi)
	}
	if err := c.LIF.Validate(); err != nil {
		return err
	}
	return c.Syn.Validate()
}

// Network is a live simulation instance. It is not safe for concurrent use
// by multiple goroutines; every step runs on the caller's goroutine.
type Network struct {
	Cfg Config

	Exc   *neuron.Population // first layer
	Syn   *synapse.Matrix
	Plast *synapse.Plasticity

	rec *Recorder     // default recorder (WithRecorder); Present's arg overrides
	reg *obs.Registry // observability registry; nil = disabled

	// Phase timers and event counters; all nil (no-op) without an observer.
	obsPlast   *obs.Timer
	obsInputSp *obs.Counter
	obsExcSp   *obs.Counter
	obsInhEv   *obs.Counter
	obsSynUpd  *obs.Counter

	core    *Core     // encoder and forward-step loop over Exc and Syn
	lastPre []float64 // last spike time per input train

	step uint64  // global step counter (keys RNG draws)
	now  float64 // absolute simulation time, ms

	// Diagnostics.
	TotalInputSpikes uint64
	TotalExcSpikes   uint64
	TotalInhEvents   uint64 // layer-2 relay activations (== WTA triggers)
}

// Option customizes a Network at construction time, so new capabilities
// (recorders, observability) compose without widening Config.
type Option func(*buildOptions)

type buildOptions struct {
	rec *Recorder
	reg *obs.Registry
}

// WithRecorder installs a default spike recorder used whenever Present is
// called with a nil recorder argument.
func WithRecorder(rec *Recorder) Option {
	return func(o *buildOptions) { o.rec = rec }
}

// WithObserver attaches an observability registry: Present records
// per-phase timing histograms (network_phase_{encode,integrate,plasticity,
// inhibit}_ns) and cumulative spike/update counters. A nil registry (the
// default) keeps the hot loop allocation- and syscall-free.
func WithObserver(reg *obs.Registry) Option {
	return func(o *buildOptions) { o.reg = reg }
}

// New constructs a network with randomly initialized conductances.
// Behaviour is customized with functional options:
//
//	net, err := network.New(cfg, network.WithRecorder(rec), network.WithObserver(reg))
//
// With no options the network runs unrecorded and unobserved. Nil options
// are ignored.
func New(cfg Config, opts ...Option) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var bo buildOptions
	for _, opt := range opts {
		if opt != nil {
			opt(&bo)
		}
	}
	exc, err := neuron.NewPopulation(cfg.NumNeurons, cfg.LIF)
	if err != nil {
		return nil, err
	}
	mat, err := synapse.NewMatrix(cfg.NumInputs, cfg.NumNeurons, cfg.Syn.Format)
	if err != nil {
		return nil, err
	}
	mat.InitUniform(rng.NewStream(rng.Hash64(cfg.Seed, 0x1717)), cfg.InitGLo, cfg.InitGHi)
	plast, err := synapse.NewPlasticity(cfg.Syn, mat)
	if err != nil {
		return nil, err
	}
	n := &Network{
		Cfg:     cfg,
		Exc:     exc,
		Syn:     mat,
		Plast:   plast,
		rec:     bo.rec,
		reg:     bo.reg,
		core:    NewCore(cfg, exc, mat),
		lastPre: make([]float64, cfg.NumInputs),

		// All handles are nil (free no-ops) when bo.reg is nil.
		obsPlast:   bo.reg.Timer("network_phase_plasticity_ns"),
		obsInputSp: bo.reg.Counter("network_input_spikes_total"),
		obsExcSp:   bo.reg.Counter("network_exc_spikes_total"),
		obsInhEv:   bo.reg.Counter("network_inh_events_total"),
		obsSynUpd:  bo.reg.Counter("network_syn_updates_total"),
	}
	// The core's phase timers: the per-presentation plan build and wait
	// on the presenting goroutine, then the per-step plan lookup, integrate
	// and WTA; and the count of chunks its helper built ahead.
	n.core.obsBuild = bo.reg.Timer("network_phase_encode_build_ns")
	n.core.obsAhead = bo.reg.Counter("network_encode_chunks_ahead_total")
	n.core.obsEncode = bo.reg.Timer("network_phase_encode_ns")
	n.core.obsIntegrate = bo.reg.Timer("network_phase_integrate_ns")
	n.core.obsInhibit = bo.reg.Timer("network_phase_inhibit_ns")
	return n, nil
}

// Observer returns the registry installed with WithObserver (nil when the
// network is unobserved). Downstream components (learn.Trainer) register
// their own metrics against it so one registry snapshots the whole stack.
func (n *Network) Observer() *obs.Registry { return n.reg }

// Now returns the absolute simulation time in ms.
func (n *Network) Now() float64 { return n.now }

// Step returns the global step counter.
func (n *Network) Step() uint64 { return n.step }

// SetClock restores the global step counter and absolute simulation time.
// Every stochastic draw in the simulator is counter-based and keyed by the
// step, so a checkpoint that restores (G, theta, step, now) resumes the
// exact random sequence of the interrupted run — the step counter IS the
// RNG state. Only checkpoint restore should call this.
func (n *Network) SetClock(step uint64, now float64) {
	n.step = step
	n.now = now
}

// Recorder captures spike events for raster plots (Figs 4, 6a). A nil
// *Recorder disables recording.
type Recorder struct {
	InputSpikes  []SpikeEvent
	NeuronSpikes []SpikeEvent
}

// SpikeEvent is one (time, unit) spike.
type SpikeEvent struct {
	TimeMS float64
	Index  int
}

// PresentResult summarizes one image presentation.
type PresentResult struct {
	SpikeCounts []int // spikes per first-layer neuron during this presentation
	InputSpikes int   // total input spikes delivered
	Steps       int   // simulation steps executed
}

// Winner returns the index of the most active neuron (-1 if silent).
func (r PresentResult) Winner() (idx, count int) {
	idx = -1
	for i, c := range r.SpikeCounts {
		if c > count {
			idx, count = i, c
		}
	}
	return idx, count
}

// TotalSpikes sums the first-layer spike counts.
func (r PresentResult) TotalSpikes() int {
	sum := 0
	for _, c := range r.SpikeCounts {
		sum += c
	}
	return sum
}

// Present shows one image to the network for ctl.TLearnMS milliseconds.
// When learn is true the STDP rule updates conductances. Membranes and
// spike timers are reset at the start of the presentation; homeostatic
// thresholds persist. A nil rec falls back to the recorder installed with
// WithRecorder (if any).
func (n *Network) Present(img []uint8, ctl encode.Control, learn bool, rec *Recorder) (PresentResult, error) {
	if rec == nil {
		rec = n.rec
	}
	if len(img) != n.Cfg.NumInputs {
		return PresentResult{}, fmt.Errorf("network: image has %d pixels, network expects %d", len(img), n.Cfg.NumInputs)
	}
	if err := ctl.Validate(); err != nil {
		return PresentResult{}, err
	}
	steps, err := n.core.Encode(img, ctl, n.step) // keyed by the start step
	if err != nil {
		return PresentResult{}, err
	}

	n.Exc.FreezeTheta = !learn // evaluation mode: homeostasis frozen
	for i := range n.lastPre {
		n.lastPre[i] = synapse.Never
	}
	// SpikeCounts starts at minus the lifetime counts and gets the
	// post-presentation counts added at the end.
	counts := make([]int, n.Cfg.NumNeurons)
	for i, c := range n.Exc.SpikeCounts() {
		counts[i] = -int(c)
	}

	res := PresentResult{SpikeCounts: counts, Steps: steps}
	res.InputSpikes = n.core.run(&trainHook{n: n, rec: rec, learn: learn})
	n.TotalInputSpikes += uint64(res.InputSpikes)
	n.obsInputSp.Add(uint64(res.InputSpikes))

	for i, c := range n.Exc.SpikeCounts() {
		counts[i] += int(c)
	}
	return res, nil
}
