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
// causality clean: in lazy mode the spiking rows are brought up to date
// with the deferred post-spike updates before integrate reads them, then
// the pre-spike times move, and each post spike applies the learning
// rule to its synapse column — deterministic eqs. 4–5, or stochastic eq. 6
// potentiation and eq. 7 depression (StochParams.PDepEvent) — at once in
// dense mode or deferred to each row's next spike in lazy mode.
// Frozen-weight inference (internal/infer) encodes and steps through the
// same core with no hook, so the two cannot drift apart.
//
// Every step runs on the presenting goroutine: at the paper's operating
// point a step is a few µs of work, less than a worker-pool handoff costs
// (DESIGN.md §16.4). The engine.Executor carries only the lazy
// end-of-presentation row flush, and with counter-based RNG a pooled
// executor is bit-identical to sequential execution.
package network

import (
	"fmt"

	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/engine"
	"parallelspikesim/internal/neuron"
	"parallelspikesim/internal/obs"
	"parallelspikesim/internal/rng"
	"parallelspikesim/internal/synapse"
)

// PlasticityMode selects how STDP updates are scheduled. Both modes are
// bit-identical for identical seeds (the golden suite in internal/golden
// pins this); they differ only in execution strategy.
type PlasticityMode int

const (
	// DensePlasticity applies every post-spike column update eagerly, the
	// moment the neuron fires — the reference schedule.
	DensePlasticity PlasticityMode = iota
	// LazyPlasticity defers post-spike updates into a shared event log and
	// replays them row-contiguously when a row's pre neuron next spikes (or
	// at presentation end), converting the dense path's 8 KB-strided column
	// walks into cache-resident row flushes.
	LazyPlasticity
)

// String names the mode as the psbench -plasticity flag spells it.
func (m PlasticityMode) String() string {
	switch m {
	case DensePlasticity:
		return "dense"
	case LazyPlasticity:
		return "lazy"
	default:
		return fmt.Sprintf("PlasticityMode(%d)", int(m))
	}
}

// ParsePlasticityMode converts a user-facing mode name.
func ParsePlasticityMode(s string) (PlasticityMode, error) {
	switch s {
	case "dense", "eager":
		return DensePlasticity, nil
	case "lazy", "event", "event-driven":
		return LazyPlasticity, nil
	default:
		return 0, fmt.Errorf("network: unknown plasticity mode %q", s)
	}
}

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

	TrainKind        encode.TrainKind
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
		TrainKind:  encode.Poisson,
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
// by multiple goroutines; steps run on the caller's goroutine and only the
// per-presentation lazy flush fans out over the executor.
type Network struct {
	Cfg Config

	Exc   *neuron.Population // first layer
	Syn   *synapse.Matrix
	Plast *synapse.Plasticity

	exec engine.Executor
	rec  *Recorder      // default recorder (WithRecorder); Present's arg overrides
	reg  *obs.Registry  // observability registry; nil = disabled
	lazy *synapse.Queue // deferred-update queue; nil in dense mode

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
// (executors, recorders, observability) compose without widening Config.
type Option func(*buildOptions)

type buildOptions struct {
	exec  engine.Executor
	rec   *Recorder
	reg   *obs.Registry
	plast PlasticityMode
}

// WithExecutor installs exec for the one per-presentation fan-out left:
// the lazy-plasticity row flush at the end of each learning presentation.
// Encoding and simulation steps always run inline on the presenting
// goroutine. The caller retains ownership (and Close responsibility) of the
// executor. The default is sequential execution.
func WithExecutor(exec engine.Executor) Option {
	return func(o *buildOptions) { o.exec = exec }
}

// WithRecorder installs a default spike recorder used whenever Present is
// called with a nil recorder argument.
func WithRecorder(rec *Recorder) Option {
	return func(o *buildOptions) { o.rec = rec }
}

// WithPlasticity selects the STDP scheduling strategy. The default is
// DensePlasticity; LazyPlasticity produces bit-identical results faster on
// plasticity-heavy workloads (see DESIGN.md §11).
func WithPlasticity(mode PlasticityMode) Option {
	return func(o *buildOptions) { o.plast = mode }
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
//	net, err := network.New(cfg, network.WithExecutor(pool), network.WithObserver(reg))
//
// With no options the network runs sequentially, unrecorded and
// unobserved. Nil options are ignored.
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
	exec := bo.exec
	if exec == nil {
		exec = engine.New(1)
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
		exec:    exec,
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
	if bo.plast == LazyPlasticity {
		q, err := synapse.NewQueue(plast, cfg.NumInputs)
		if err != nil {
			return nil, err
		}
		n.lazy = q
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

// Plasticity returns the scheduling mode the network was built with.
func (n *Network) Plasticity() PlasticityMode {
	if n.lazy != nil {
		return LazyPlasticity
	}
	return DensePlasticity
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

	// Lazy mode: the presentation boundary is a read point — checkpoints,
	// statistics and receptive-field plots all inspect the matrix between
	// images — so drain every row. Rows are independent and the drain is
	// milliseconds of work, so this is the one place a presentation fans out
	// over the executor.
	if n.lazy != nil && learn && n.lazy.Events() > 0 {
		tp := n.obsPlast.Start()
		n.exec.For(n.Cfg.NumInputs, func(chunk, lo, hi int) {
			n.lazy.FlushRowsRange(lo, hi, n.lastPre)
		})
		n.obsPlast.Stop(tp)
	}
	if n.lazy != nil {
		n.lazy.Reset()
	}

	for i, c := range n.Exc.SpikeCounts() {
		counts[i] += int(c)
	}
	return res, nil
}
