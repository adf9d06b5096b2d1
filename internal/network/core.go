package network

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"parallelspikesim/internal/check"
	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/neuron"
	"parallelspikesim/internal/obs"
	"parallelspikesim/internal/rng"
	"parallelspikesim/internal/synapse"
)

// Core is one presentation's kernel sequence as the paper's simulation
// environment runs it (Fig 1(d), Fig 2, §III): Poisson input generation
// from each pixel's rate, then the forward-step loop. It is the only place
// a presented image becomes spikes and the only place a presentation is
// stepped.
// Network.Present runs it with a training hook; infer.Engine runs it bare
// over a frozen matrix, so inference is bit-identical to an evaluation
// presentation by construction. A Core is not safe for concurrent use: each
// presenting goroutine owns one.
type Core struct {
	Pop *neuron.Population
	syn *synapse.Matrix

	dt, amp, tInh float64
	decay         float64 // per-step synaptic current decay; 0 = instantaneous

	srcSeed uint64         // input-spike stream seed, derived from the network seed
	src     *encode.Source // created on the first Encode, then rebound per image

	// The encoded presentation, in chunks of chunkSteps steps: chunks[k]
	// holds steps [k·chunkSteps, (k+1)·chunkSteps), rebuilt in place by
	// whichever goroutine claims k from next — run, or the helper that
	// Encode spawns to build ahead of it.
	start   uint64         // global step of the presentation's first step
	steps   int            // steps in the presentation
	chunks  []*encode.Plan // the chunk plans, grown to the longest presentation
	done    []atomic.Bool  // done[k]: chunks[k] holds this presentation's steps
	next    atomic.Int64   // the lowest chunk no goroutine has claimed
	helper  sync.WaitGroup // the helper goroutine of the current presentation
	ahead   func()         // c.buildAhead, bound once so spawning it does not allocate
	buildNS int64          // presenting-goroutine build and wait time, observed once per run

	current []float64 // per-neuron synaptic current trace
	in      []int     // input-spike scratch, kept for its capacity
	cand    []int     // threshold-crosser scratch, kept for its capacity

	// Phase timers and the helper's chunk counter; nil (free no-ops)
	// unless an observed network sets them.
	obsBuild, obsEncode, obsIntegrate, obsInhibit *obs.Timer
	obsAhead                                      *obs.Counter
}

// chunkSteps is the step count of one plan chunk. A chunk is ~50 µs of
// Poisson build at 784 pixels and ~110 µs of stepping at the paper's
// 784×1000 operating point, so the helper stays ahead of run after the
// first chunk, and a presentation of 100 steps hands off ten chunks, not
// a hundred steps (DESIGN.md §16.4).
const chunkSteps = 10

// NewCore binds a population and a conductance matrix, both of cfg's
// geometry, to a step core running cfg's electrical constants.
func NewCore(cfg Config, pop *neuron.Population, syn *synapse.Matrix) *Core {
	c := &Core{
		Pop:     pop,
		syn:     syn,
		dt:      cfg.DTms,
		amp:     cfg.SpikeAmp,
		tInh:    cfg.TInhMS,
		srcSeed: rng.Hash64(cfg.Seed, 0x50c),
		current: make([]float64, cfg.NumNeurons),
	}
	if cfg.TauSynMS > 0 {
		c.decay = math.Exp(-cfg.DTms / cfg.TauSynMS)
	}
	c.ahead = c.buildAhead
	return c
}

// PresentationSteps returns the number of dt-wide steps a presentation
// under ctl runs, rejecting one too short to run a single step.
func PresentationSteps(ctl encode.Control, dt float64) (int, error) {
	steps := int(ctl.TLearnMS / dt)
	if steps <= 0 {
		return 0, fmt.Errorf("network: presentation %v ms at dt %v ms yields no steps", ctl.TLearnMS, dt)
	}
	return steps, nil
}

// Encode turns img into the sparse spike plan of one presentation under
// ctl, beginning when the global step counter reads startStep, and returns
// its step count. The spikes are a pure function of (network seed,
// startStep, image, band): a presentation's stream is keyed by its start
// step, so successive presentations draw decorrelated trains, and a
// presentation encoded at the same start step — training or inference —
// replays the same spikes. The event-driven builder visits work
// proportional to spikes, not steps × pixels (DESIGN.md §16), and the
// source and plan storage are recycled, so a warm Encode does not allocate.
//
// Encode only binds the source; the plan is built in chunks of chunkSteps
// steps. A presentation of more than one chunk spawns one helper goroutine
// that builds chunks ahead of run, which builds any chunk the helper has
// not claimed yet itself. Chunk k is the source's plan of steps
// [lo, hi) keyed at startStep+lo — exactly those steps of the whole plan,
// since every draw is keyed by the global step — so who builds it does not
// change a bit. run waits for the helper before it returns.
func (c *Core) Encode(img []uint8, ctl encode.Control, startStep uint64) (int, error) {
	steps, err := PresentationSteps(ctl, c.dt)
	if err != nil {
		return 0, err
	}
	// A helper of an encoding that was never run still reads the source.
	c.helper.Wait()
	t := c.obsBuild.Start()
	if c.src == nil {
		src, err := encode.NewSource(img, ctl.Band, c.srcSeed, startStep)
		if err != nil {
			return 0, err
		}
		c.src = src
	} else if err := c.src.Rebind(img, ctl.Band, startStep); err != nil {
		return 0, err
	}
	// Prepared here, the source is read-only to both goroutines:
	// BuildPlanInto's own lazy Prepare would race.
	c.src.Prepare(c.dt)
	n := (steps + chunkSteps - 1) / chunkSteps
	for len(c.chunks) < n {
		c.chunks = append(c.chunks, new(encode.Plan))
	}
	if len(c.done) < n {
		c.done = make([]atomic.Bool, n)
	}
	for k := range c.done[:n] {
		c.done[k].Store(false)
	}
	c.start, c.steps = startStep, steps
	c.next.Store(0)
	if n > 1 {
		c.helper.Add(1)
		go c.ahead()
	}
	c.buildNS = c.obsBuild.Since(t)
	return steps, nil
}

// buildAhead is the helper goroutine's body: it claims and builds chunks
// in order until every chunk is claimed.
func (c *Core) buildAhead() {
	defer c.helper.Done()
	n := int64((c.steps + chunkSteps - 1) / chunkSteps)
	for k := c.next.Add(1) - 1; k < n; k = c.next.Add(1) - 1 {
		c.build(int(k))
		c.obsAhead.Inc()
	}
}

// build fills chunk k with steps [k·chunkSteps, hi) of the presentation
// and publishes it. The caller must have claimed k.
func (c *Core) build(k int) {
	lo := k * chunkSteps
	hi := min(lo+chunkSteps, c.steps)
	c.src.BuildPlanInto(c.chunks[k], c.start+uint64(lo), c.dt, hi-lo)
	c.done[k].Store(true)
}

// chunk returns chunk k once it is built: it claims and builds k inline
// if no goroutine has claimed it, and otherwise yields until the claimer
// publishes it. Chunks are claimed in order, so next ≥ k here, and no
// chunk is built twice.
func (c *Core) chunk(k int) *encode.Plan {
	if !c.done[k].Load() {
		if c.next.CompareAndSwap(int64(k), int64(k+1)) {
			c.build(k)
		} else {
			for !c.done[k].Load() {
				runtime.Gosched()
			}
		}
	}
	return c.chunks[k]
}

// Run steps the presentation last encoded from reset membranes, a zero
// current trace and a clock at 0 ms — every timer is relative to the
// presentation start — and returns the number of input spikes delivered.
// The spikes fired add to Pop's spike counters.
func (c *Core) Run() int { return c.run(nil) }

// run is Run with an optional training hook (nil for inference). Each step:
//
//  1. replay the step's input spikes from the sparse plan, ascending by
//     pixel — the order that fixes the float summation order below;
//  2. integrate over the whole neuron range: decay the synaptic current
//     and accumulate the input spikes into it (eq. 3) in one pass of the
//     multi-row synapse kernel, then step the LIF membranes (eqs. 1–2),
//     collecting threshold crossers without committing their spikes;
//  3. winner-take-all: with inhibition enabled only the strongest crosser
//     fires — it would have crossed first in continuous time — and its
//     layer-2 relay inhibits every other neuron for t_inh; the losers are
//     suppressed.
//
// Each chunk's first step takes the chunk from the helper or builds it
// (see Encode). A step at the paper's 784×1000 operating point is ~11 µs
// of work, less than a worker-pool handoff costs, so it runs on the
// calling goroutine (DESIGN.md §16.4). Once the first presentation has
// warmed the scratch capacities, run performs no heap allocation
// (TestNoAllocRun).
//
//psslint:noalloc
func (c *Core) run(h *trainHook) int {
	// Per-step state lives in locals so the loop neither reloads nor stores
	// through c every step; the scratch slices are written back at the end.
	pop, cur, decay, in, cand := c.Pop, c.current, c.decay, c.in, c.cand
	pop.ResetMembranes()
	clear(cur)
	inputSpikes := 0
	buildNS := c.buildNS
	var plan *encode.Plan
	for s := 0; s < c.steps; s++ {
		now := float64(s) * c.dt
		if h != nil {
			now = h.n.now // training keeps the network's absolute clock
		}

		if s%chunkSteps == 0 {
			t := c.obsBuild.Start()
			plan = c.chunk(s / chunkSteps)
			buildNS += c.obsBuild.Since(t)
			if check.Enabled {
				// A malformed plan — offsets out of range, pixels out of
				// range or out of order — must die here, not corrupt the
				// simulation.
				if err := plan.Validate(); err != nil {
					check.Assert(false, "network: spike plan failed validation: %v", err)
				}
			}
		}
		t := c.obsEncode.Start()
		in = plan.Step(s%chunkSteps, in[:0])
		c.obsEncode.Stop(t)
		inputSpikes += len(in)
		if h != nil {
			h.inputs(in, now)
		}

		t = c.obsIntegrate.Start()
		c.syn.AccumulateSpikesRange(in, c.amp, decay, cur, 0, len(cur))
		cand = pop.CandidatesRange(0, len(cur), c.dt, now, cur, cand[:0])
		c.obsIntegrate.Stop(t)

		t = c.obsInhibit.Start()
		post := cand
		if c.tInh > 0 && len(post) > 1 {
			winner := selectWinner(pop, post)
			for _, p := range post {
				if p != winner {
					pop.Suppress(p)
				}
			}
			post = post[:1]
			post[0] = winner
		}
		for _, p := range post {
			pop.Fire(p, now)
			if c.tInh > 0 {
				pop.Inhibit(p, now+c.tInh)
			}
		}
		if check.Enabled && c.tInh > 0 && len(post) > 0 {
			// At most one neuron fires per step, and every losing candidate
			// sits inside the inhibition window it triggered.
			check.Assert(len(post) == 1,
				"network: inhibition enabled but %d neurons fired in one step", len(post))
			for _, p := range cand {
				if p != post[0] {
					check.Assert(pop.Inhibited(p, now),
						"network: WTA loser %d escaped the inhibition window at t=%v", p, now)
				}
			}
		}
		c.obsInhibit.Stop(t)

		if h != nil {
			if len(post) > 0 {
				h.fired(post, now)
			}
			h.n.step++
			h.n.now += c.dt
		}
	}
	c.helper.Wait()
	c.obsBuild.Observe(buildNS)
	c.in, c.cand = in, cand
	return inputSpikes
}

// selectWinner returns the winner-take-all victor among a step's threshold
// crossers: the candidate with the largest membrane overshoot, which would
// have crossed first in continuous time (ties break toward the lowest
// index, candidates being in ascending order). candidates must be non-empty.
func selectWinner(pop *neuron.Population, candidates []int) int {
	winner := candidates[0]
	for _, c := range candidates[1:] {
		if pop.Overshoot(c) > pop.Overshoot(winner) {
			winner = c
		}
	}
	return winner
}

// trainHook is what a training presentation adds to the bare core loop:
// spike recording, diagnostics, the lazy row flush, pre-spike times, STDP
// and the network's step counter and absolute clock.
type trainHook struct {
	n     *Network
	rec   *Recorder
	learn bool
}

// inputs runs between input replay and integrate.
func (h *trainHook) inputs(in []int, now float64) {
	n := h.n
	if h.rec != nil {
		for _, px := range in {
			h.rec.InputSpikes = append(h.rec.InputSpikes, SpikeEvent{TimeMS: now, Index: px})
		}
	}
	// Lazy mode: the rows the integrate is about to read must first be
	// brought up to date. Flushing before lastPre moves is what keeps the
	// deferred replay bit-identical to the dense schedule: every pending
	// event recorded since a row's last flush observed exactly the lastPre
	// value the row still holds. Only the handful of rows spiking this step
	// are touched, so the flush runs inline.
	if n.lazy != nil && h.learn && len(in) > 0 && n.lazy.Events() > 0 {
		tp := n.obsPlast.Start()
		for _, pre := range in {
			n.lazy.FlushRow(pre, n.lastPre[pre])
		}
		n.obsPlast.Stop(tp)
	}
	// Neither integrate kernel reads lastPre; only post-spike learning does.
	for _, pre := range in {
		n.lastPre[pre] = now
	}
}

// fired handles the step's post spikes once the core has fired the winner
// and inhibited the rest. The learning rule reads only lastPre, G and the
// step counter, never the population, so applying it after the
// winner-take-all commits is the same as applying it in between.
func (h *trainHook) fired(post []int, now float64) {
	n := h.n
	if h.learn {
		if n.lazy != nil {
			// Defer the column update; rows replay it when their pre
			// neuron next spikes or at presentation end.
			for _, p := range post {
				n.lazy.Record(p, now, n.step)
			}
		} else {
			tp := n.obsPlast.Start()
			for _, p := range post {
				n.Plast.OnPostSpikeRange(p, now, n.lastPre, n.step, 0, n.Cfg.NumInputs)
			}
			n.obsPlast.Stop(tp)
		}
		n.obsSynUpd.Add(uint64(len(post) * n.Cfg.NumInputs))
	}
	n.TotalExcSpikes += uint64(len(post))
	n.obsExcSp.Add(uint64(len(post)))
	if n.Cfg.TInhMS > 0 {
		// One layer-2 relay activation per winner.
		n.TotalInhEvents += uint64(len(post))
		n.obsInhEv.Add(uint64(len(post)))
	}
	if h.rec != nil {
		for _, p := range post {
			h.rec.NeuronSpikes = append(h.rec.NeuronSpikes, SpikeEvent{TimeMS: now, Index: p})
		}
	}
}
