// Package network assembles ParallelSpikeSim's unsupervised-learning
// architecture (paper Fig 3): an array of input spike trains (one per
// pixel), an all-to-all plastic conductance matrix into a first layer of
// excitatory LIF neurons, and a second layer of one-to-one inhibition relays
// implementing winner-take-all — when a first-layer neuron spikes, its
// second-layer partner suppresses every *other* first-layer neuron for
// t_inh milliseconds.
//
// The per-step schedule keeps STDP causality clean:
//
//  1. replay this step's input spikes from the presentation's sparse spike
//     plan; in lazy mode, then bring the spiking rows up to date with the
//     deferred post-spike updates;
//  2. integrate, inline over the neuron range: decay the synaptic current,
//     accumulate the input spikes into it (eq. 3) with the multi-row
//     synapse kernel, and step the LIF layer (eqs. 1–2), collecting
//     threshold crossers;
//  3. record the new pre-spike times;
//  4. winner-take-all among the crossers, then for the post spike: the
//     learning rule's update of its synapse column — deterministic eqs.
//     4–5, or stochastic eq. 6 potentiation and eq. 7 depression
//     (StochParams.PDepEvent) — applied at once in dense mode or deferred
//     to each row's next spike in lazy mode; inhibition of the other
//     neurons; post-spike time update.
//
// Every step runs on the presenting goroutine: at the paper's operating
// point a step is a few µs of work, less than a worker-pool handoff costs
// (DESIGN.md §16.4). The engine.Executor carries only the per-presentation
// fan-out — the lazy end-of-presentation row flush here, and the batch plan
// prefetch of learn.Trainer — and with counter-based RNG a pooled executor
// is bit-identical to sequential execution.
package network

import (
	"fmt"
	"math"

	"parallelspikesim/internal/check"
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
	obsEncode    *obs.Timer // per-step sparse plan lookup
	obsEncodeBld *obs.Timer // per-presentation sparse plan construction
	obsIntegrate *obs.Timer
	obsPlast     *obs.Timer
	obsInhibit   *obs.Timer
	obsInputSp   *obs.Counter
	obsExcSp     *obs.Counter
	obsInhEv     *obs.Counter
	obsSynUpd    *obs.Counter

	lastPre  []float64 // last spike time per input train
	lastPost []float64 // last spike time per first-layer neuron
	current  []float64 // per-neuron input current (trace)

	spikeBuf []int // threshold-crosser scratch
	planBuf  []int // scratch for consuming precomputed spike plans

	// Inline (plan-less) presentations build their sparse spike schedule
	// here, recycling the source's rate/threshold buffers and the plan's
	// CSR/bitset storage across images — allocation-free once warm.
	inlineSrc  *encode.Source
	inlinePlan *encode.Plan

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

// WithExecutor installs exec for the network's per-presentation fan-out:
// the lazy-plasticity row flush at the end of each learning presentation,
// and (through Executor) learn.Trainer's batch plan prefetch. Simulation
// steps always run inline on the presenting goroutine. The caller retains
// ownership (and Close responsibility) of the executor. The default is
// sequential execution.
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
		Cfg:      cfg,
		Exc:      exc,
		Syn:      mat,
		Plast:    plast,
		exec:     exec,
		rec:      bo.rec,
		reg:      bo.reg,
		lastPre:  make([]float64, cfg.NumInputs),
		lastPost: make([]float64, cfg.NumNeurons),
		current:  make([]float64, cfg.NumNeurons),

		// All handles are nil (free no-ops) when bo.reg is nil.
		obsEncode:    bo.reg.Timer("network_phase_encode_ns"),
		obsEncodeBld: bo.reg.Timer("network_phase_encode_build_ns"),
		obsIntegrate: bo.reg.Timer("network_phase_integrate_ns"),
		obsPlast:     bo.reg.Timer("network_phase_plasticity_ns"),
		obsInhibit:   bo.reg.Timer("network_phase_inhibit_ns"),
		obsInputSp:   bo.reg.Counter("network_input_spikes_total"),
		obsExcSp:     bo.reg.Counter("network_exc_spikes_total"),
		obsInhEv:     bo.reg.Counter("network_inh_events_total"),
		obsSynUpd:    bo.reg.Counter("network_syn_updates_total"),
	}
	if bo.plast == LazyPlasticity {
		q, err := synapse.NewQueue(plast, cfg.NumInputs)
		if err != nil {
			return nil, err
		}
		n.lazy = q
	}
	n.resetTimers()
	return n, nil
}

// Plasticity returns the scheduling mode the network was built with.
func (n *Network) Plasticity() PlasticityMode {
	if n.lazy != nil {
		return LazyPlasticity
	}
	return DensePlasticity
}

// Executor returns the engine installed with WithExecutor. Downstream
// components (learn.Trainer's batched spike-train prefetch) reuse it so one
// worker pool serves the whole stack.
func (n *Network) Executor() engine.Executor { return n.exec }

func (n *Network) resetTimers() {
	for i := range n.lastPre {
		n.lastPre[i] = synapse.Never
	}
	for i := range n.lastPost {
		n.lastPost[i] = synapse.Never
	}
	for i := range n.current {
		n.current[i] = 0
	}
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

// PlanPresentation synthesizes the full spike schedule of one presentation
// ahead of time: the spikes image img would emit under ctl if presented
// when the network's global step counter reads startStep. Plans are pure
// functions of (seed, startStep, image, band), so they can be built
// concurrently for several upcoming images (learn.Trainer's batch mode does
// this over the engine pool) and consumed later by PresentPlan — which
// falls back to inline generation, bit-identically, whenever a plan's
// predicted start step turns out wrong (e.g. an adaptive boost shifted the
// clock).
func (n *Network) PlanPresentation(img []uint8, ctl encode.Control, startStep uint64) (*encode.Plan, error) {
	return n.PlanPresentationInto(nil, img, ctl, startStep)
}

// PlanPresentationInto is PlanPresentation recycling the buffers of a
// previously built (and no longer referenced) plan; nil allocates a fresh
// one. learn.Trainer's batch prefetch keeps a free list of consumed plans
// and rebuilds into them, so a steady-state batched run stops allocating
// plan storage altogether.
func (n *Network) PlanPresentationInto(p *encode.Plan, img []uint8, ctl encode.Control, startStep uint64) (*encode.Plan, error) {
	if len(img) != n.Cfg.NumInputs {
		return nil, fmt.Errorf("network: image has %d pixels, network expects %d", len(img), n.Cfg.NumInputs)
	}
	if err := ctl.Validate(); err != nil {
		return nil, err
	}
	src, err := encode.NewSource(img, ctl.Band, n.Cfg.TrainKind, rng.Hash64(n.Cfg.Seed, 0x50c), startStep)
	if err != nil {
		return nil, err
	}
	return src.BuildPlanInto(p, startStep, n.Cfg.DTms, int(ctl.TLearnMS/n.Cfg.DTms), ctl.Band), nil
}

// buildInlinePlan materializes the sparse spike schedule for a plan-less
// presentation into the network's recycled inline source and plan. The
// source is rebound (not rebuilt) per image, so steady-state inline
// presentations allocate nothing for encoding.
func (n *Network) buildInlinePlan(img []uint8, ctl encode.Control, startStep uint64, steps int) (*encode.Plan, error) {
	if n.inlineSrc == nil {
		src, err := encode.NewSource(img, ctl.Band, n.Cfg.TrainKind, rng.Hash64(n.Cfg.Seed, 0x50c), startStep)
		if err != nil {
			return nil, err
		}
		n.inlineSrc = src
	} else if err := n.inlineSrc.Rebind(img, ctl.Band, startStep); err != nil {
		return nil, err
	}
	n.inlinePlan = n.inlineSrc.BuildPlanInto(n.inlinePlan, startStep, n.Cfg.DTms, steps, ctl.Band)
	return n.inlinePlan, nil
}

// Present shows one image to the network for ctl.TLearnMS milliseconds.
// When learn is true the STDP rule updates conductances. Membranes and
// spike timers are reset at the start of the presentation; homeostatic
// thresholds persist. A nil rec falls back to the recorder installed with
// WithRecorder (if any).
func (n *Network) Present(img []uint8, ctl encode.Control, learn bool, rec *Recorder) (PresentResult, error) {
	return n.PresentPlan(img, ctl, learn, rec, nil)
}

// PresentPlan is Present with an optional precomputed spike schedule (see
// PlanPresentation). A nil or stale plan — wrong start step, band, train
// kind, step width or step count — is ignored and the spikes are generated
// inline; either way the presentation is bit-identical.
func (n *Network) PresentPlan(img []uint8, ctl encode.Control, learn bool, rec *Recorder, plan *encode.Plan) (PresentResult, error) {
	if rec == nil {
		rec = n.rec
	}
	if len(img) != n.Cfg.NumInputs {
		return PresentResult{}, fmt.Errorf("network: image has %d pixels, network expects %d", len(img), n.Cfg.NumInputs)
	}
	if err := ctl.Validate(); err != nil {
		return PresentResult{}, err
	}
	presentation := n.step // unique per presentation; decorrelates spike trains
	steps := int(ctl.TLearnMS / n.Cfg.DTms)
	if plan != nil && (!plan.Matches(presentation, ctl.Band, n.Cfg.TrainKind, n.Cfg.DTms, steps) ||
		plan.NumTrains() != n.Cfg.NumInputs) {
		plan = nil
	}
	if plan == nil {
		// Inline fallback: build the sparse event schedule up front — the
		// event-driven builder visits work proportional to spikes, not
		// steps × pixels, so the build replaces the per-step dense scans
		// this loop used to run (DESIGN.md §16). Source and plan storage
		// are recycled across presentations.
		tBld := n.obsEncodeBld.Start()
		var err error
		plan, err = n.buildInlinePlan(img, ctl, presentation, steps)
		n.obsEncodeBld.Stop(tBld)
		if err != nil {
			return PresentResult{}, err
		}
	}
	if check.Enabled {
		// Every presentation replays from a plan now; a malformed one —
		// hostile offsets, out-of-range pixels, a bitset out of sync with
		// the CSR rows — must die here, not corrupt the simulation.
		if err := plan.Validate(); err != nil {
			check.Assert(false, "network: spike plan failed validation: %v", err)
		}
	}

	n.Exc.ResetMembranes()
	n.Exc.FreezeTheta = !learn // evaluation mode: homeostasis frozen
	n.resetTimers()
	// SpikeCounts starts at minus the lifetime counts and gets the
	// post-presentation counts added at the end.
	counts := make([]int, n.Cfg.NumNeurons)
	for i, c := range n.Exc.SpikeCounts() {
		counts[i] = -int(c)
	}

	dt := n.Cfg.DTms
	decay := 0.0
	if n.Cfg.TauSynMS > 0 {
		decay = math.Exp(-dt / n.Cfg.TauSynMS)
	}
	res := PresentResult{SpikeCounts: counts, Steps: steps}

	for s := 0; s < steps; s++ {
		now := n.now
		step := n.step

		// (1) Input spikes: replayed from the sparse event schedule —
		// prefetched by the caller or built inline above. Both draw from
		// the same counter-based stream as a dense per-pixel scan, so the
		// spikes are identical; the lookup is a CSR row copy whose cost
		// scales with the spikes of this step, not NumInputs.
		tEnc := n.obsEncode.Start()
		n.planBuf = plan.Step(s, n.planBuf[:0])
		inputSpikes := n.planBuf
		n.obsEncode.Stop(tEnc)
		res.InputSpikes += len(inputSpikes)
		n.TotalInputSpikes += uint64(len(inputSpikes))
		n.obsInputSp.Add(uint64(len(inputSpikes)))
		if rec != nil {
			for _, px := range inputSpikes {
				rec.InputSpikes = append(rec.InputSpikes, SpikeEvent{TimeMS: now, Index: px})
			}
		}

		// (1b) Lazy mode: the rows about to be read by the current sum must
		// be brought up to date first. Flushing here — before (3) moves
		// lastPre — is what keeps the deferred replay bit-identical to the
		// dense schedule: every pending event recorded since this row's last
		// flush observed exactly the lastPre value the row still holds.
		// The flush runs inline: only the handful of rows spiking this
		// step are touched, so a parallel dispatch would cost more in
		// barrier overhead than the replay itself.
		if n.lazy != nil && learn && len(inputSpikes) > 0 && n.lazy.Events() > 0 {
			tp := n.obsPlast.Start()
			for _, pre := range inputSpikes {
				n.lazy.FlushRow(pre, n.lastPre[pre])
			}
			n.obsPlast.Stop(tp)
		}

		// (2) Integrate, inline over the whole neuron range: decay the
		// synaptic current, accumulate this step's input spikes into it
		// (eq. 3) and step the LIF membranes (eqs. 1–2), collecting
		// threshold crossers in ascending order without committing spikes
		// yet. A step at the paper's 784×1000 operating point is ~11 µs of
		// work, less than a worker-pool handoff costs, so it runs on the
		// presenting goroutine (DESIGN.md §16.4).
		tInt := n.obsIntegrate.Start()
		cur := n.current
		if decay == 0 {
			clear(cur)
		} else {
			for i := range cur {
				cur[i] *= decay
			}
		}
		n.Syn.AccumulateSpikesRange(inputSpikes, n.Cfg.SpikeAmp, cur, 0, n.Cfg.NumNeurons)
		n.spikeBuf = n.Exc.CandidatesRange(0, n.Cfg.NumNeurons, dt, now, cur, n.spikeBuf[:0])
		candidates := n.spikeBuf
		n.obsIntegrate.Stop(tInt)

		// (3) Pre-spike time bookkeeping. Neither integrate kernel reads
		// lastPre; the post-spike learning below does.
		for _, pre := range inputSpikes {
			n.lastPre[pre] = now
		}

		// (4) Winner-take-all + post-spike learning. With inhibition
		// enabled, only the strongest same-step crosser fires (it would
		// have crossed first in continuous time and its layer-2 relay
		// inhibits the rest); the losers are suppressed.
		postSpikes := candidates
		// The inhibit timer spans WTA selection and post-spike event
		// handling; plasticity kernel time is measured separately and
		// excluded, so the two histograms partition the section's wall
		// time (see DESIGN.md "Observability").
		tWTA := n.obsInhibit.Start()
		var plastNs int64
		if n.Cfg.TInhMS > 0 && len(candidates) > 1 {
			winner := SelectWinner(n.Exc, candidates)
			for _, c := range candidates {
				if c != winner {
					n.Exc.Suppress(c)
				}
			}
			postSpikes = candidates[:1]
			postSpikes[0] = winner
		}
		for _, post := range postSpikes {
			n.Exc.Fire(post, now)
			if learn {
				if n.lazy != nil {
					// Defer the column update; rows replay it when their pre
					// neuron next spikes or at presentation end.
					n.lazy.Record(post, now, step)
				} else {
					// The column update runs inline for the same reason
					// as the integrate. OnPostSpikeRange, not OnPostSpike:
					// the dense path never bumps the roll counters.
					tp := n.obsPlast.Start()
					n.Plast.OnPostSpikeRange(post, now, n.lastPre, step, 0, n.Cfg.NumInputs)
					plastNs += n.obsPlast.Since(tp)
				}
				n.obsSynUpd.Add(uint64(n.Cfg.NumInputs))
			}
			n.lastPost[post] = now
			if n.Cfg.TInhMS > 0 {
				// Layer-2 relay fires and inhibits all other neurons.
				n.Exc.Inhibit(post, now+n.Cfg.TInhMS)
				n.TotalInhEvents++
				n.obsInhEv.Inc()
			}
			n.TotalExcSpikes++
			n.obsExcSp.Inc()
			if rec != nil {
				rec.NeuronSpikes = append(rec.NeuronSpikes, SpikeEvent{TimeMS: now, Index: post})
			}
		}
		if tWTA != 0 {
			n.obsInhibit.Observe(n.obsInhibit.Since(tWTA) - plastNs)
			if plastNs > 0 {
				n.obsPlast.Observe(plastNs)
			}
		}
		if check.Enabled && n.Cfg.TInhMS > 0 && len(postSpikes) > 0 {
			// Winner-take-all bookkeeping: with inhibition enabled at most
			// one neuron fires per step, and every losing candidate must sit
			// inside the layer-2 inhibition window it triggered.
			check.Assert(len(postSpikes) == 1,
				"network: inhibition enabled but %d neurons fired in one step", len(postSpikes))
			winner := postSpikes[0]
			for _, c := range candidates {
				if c != winner {
					check.Assert(n.Exc.Inhibited(c, now),
						"network: WTA loser %d escaped the inhibition window at t=%v", c, now)
				}
			}
		}

		n.step++
		n.now += dt
	}

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

// SelectWinner returns the winner-take-all victor among a step's threshold
// crossers: the candidate with the largest membrane overshoot, which would
// have crossed first in continuous time (ties break toward the lowest
// index, candidates being in ascending order). Both the training path
// (Present) and the frozen-weight inference path (internal/infer) select
// winners through this one function, so the two can never disagree on a
// tiebreak. candidates must be non-empty.
func SelectWinner(pop *neuron.Population, candidates []int) int {
	winner := candidates[0]
	for _, c := range candidates[1:] {
		if pop.Overshoot(c) > pop.Overshoot(winner) {
			winner = c
		}
	}
	return winner
}
