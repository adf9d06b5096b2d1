package synapse

import (
	"fmt"
	"sync/atomic"

	"parallelspikesim/internal/check"
	"parallelspikesim/internal/fixed"
	"parallelspikesim/internal/rng"
)

// Event tags keying the counter-based RNG draws, so each decision type has
// its own independent stream.
const (
	tagPotRoll uint64 = iota + 1
	tagDepRoll
	tagPotRound
	tagDepRound
)

// Plasticity applies STDP updates to a conductance matrix according to a
// Config. It owns no RNG state: every stochastic decision is a pure function
// of (Config.Seed, event tag, step, pre, post), which makes updates safe to
// apply from multiple goroutines as long as no two goroutines touch the same
// post neuron (the engine partitions by post index).
type Plasticity struct {
	Cfg Config
	M   *Matrix

	// fastStep marks the flat-step code path: the matrix uses the packed
	// store and the format is ≤8 bits, so potMagnitude/depMagnitude are
	// pinned to the quantization step (§III-C) and both bounds sit on the
	// grid. Every update is then exactly a saturating ±1 in the code
	// domain — quantization has zero residue, so the rounding option (and
	// its stochastic roll, a pure counter-based function with no stream
	// state) never engages — and runs on packed lanes without leaving the
	// integer domain. Bit-identical to the scalar AddSat/SubSat path by
	// construction; the property tests in internal/fixed and the golden
	// wall pin it. simcheck builds take the scalar path instead so the
	// per-update WeightUpdate assertions still fire.
	fastStep  bool
	ceilCode  uint32 // GCeil as a lane code (valid when fastStep)
	floorCode uint32 // Det.GMin as a lane code (valid when fastStep)

	// Event counters (diagnostics). Updated atomically: range updates for
	// different posts run on different workers.
	potApplied atomic.Uint64
	depApplied atomic.Uint64
}

// NewPlasticity validates the config and binds it to a matrix.
func NewPlasticity(cfg Config, m *Matrix) (*Plasticity, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Format != m.Format {
		// Conductance grid and update pipeline must agree, otherwise the
		// quantization invariants break silently.
		return nil, fmt.Errorf("synapse: config format %s != matrix format %s", cfg.Format, m.Format)
	}
	p := &Plasticity{Cfg: cfg, M: m}
	if pk := m.packing(); pk != nil {
		bits := cfg.Format.Bits()
		if bits >= 1 && bits <= 8 &&
			cfg.Format.OnGrid(cfg.GCeil()) &&
			cfg.Det.GMin >= 0 && cfg.Format.OnGrid(cfg.Det.GMin) {
			p.fastStep = true
			p.ceilCode = pk.CodeOf(fixed.Weight(cfg.GCeil()))
			p.floorCode = pk.CodeOf(fixed.Weight(cfg.Det.GMin))
		}
	}
	return p, nil
}

// Counters reports how many potentiation/depression updates were applied.
func (p *Plasticity) Counters() (potApplied, depApplied uint64) {
	return p.potApplied.Load(), p.depApplied.Load()
}

// ResetCounters zeroes the diagnostic counters.
func (p *Plasticity) ResetCounters() {
	p.potApplied.Store(0)
	p.depApplied.Store(0)
}

// applyPot performs the arithmetic of one LTP step to synapse (pre, post)
// through the saturating update helper, which quantizes with the configured
// rounding option (the fixedrange analyzer forbids raw arithmetic on the
// Weight). It does not touch the diagnostic counters, so batch callers (the
// lazy flush) can count locally and publish once per batch.
//
//psslint:noalloc
func (p *Plasticity) applyPot(pre, post int, step uint64) {
	if p.fastStep && !check.Enabled {
		// Flat-step LTP on the packed store: a saturating +1 in the code
		// domain, no float round trip, no quantization (zero residue by
		// construction — see the fastStep field comment).
		p.M.packing().IncSat(p.M.rowWords(pre), post, p.ceilCode)
		return
	}
	g := p.M.At(pre, post)
	dg := p.Cfg.potMagnitude(float64(g))
	roll := 0.0
	if p.Cfg.Rounding == fixed.Stochastic && !p.Cfg.Format.Float {
		roll = rng.Uniform(p.Cfg.Seed, tagPotRound, step, uint64(pre), uint64(post))
	}
	ng := p.Cfg.Format.AddSat(g, dg, p.Cfg.GCeil(), p.Cfg.Rounding, roll)
	p.M.SetWeight(pre, post, ng)
	if check.Enabled {
		// Potentiation saturates at GCeil only; the floor is the format's 0.
		check.WeightUpdate("synapse: potentiate", float64(g), float64(ng), p.Cfg.Format, 0, p.Cfg.GCeil())
	}
}

// potentiate applies one LTP step and counts it.
func (p *Plasticity) potentiate(pre, post int, step uint64) {
	p.applyPot(pre, post, step)
	p.potApplied.Add(1)
}

// applyDep performs the arithmetic of one LTD step to synapse (pre, post)
// through the saturating update helper, without counter bookkeeping.
//
//psslint:noalloc
func (p *Plasticity) applyDep(pre, post int, step uint64) {
	if p.fastStep && !check.Enabled {
		p.M.packing().DecSat(p.M.rowWords(pre), post, p.floorCode)
		return
	}
	g := p.M.At(pre, post)
	dg := p.Cfg.depMagnitude(float64(g))
	roll := 0.0
	if p.Cfg.Rounding == fixed.Stochastic && !p.Cfg.Format.Float {
		roll = rng.Uniform(p.Cfg.Seed, tagDepRound, step, uint64(pre), uint64(post))
	}
	ng := p.Cfg.Format.SubSat(g, dg, p.Cfg.Det.GMin, p.Cfg.Rounding, roll)
	p.M.SetWeight(pre, post, ng)
	if check.Enabled {
		check.WeightUpdate("synapse: depress", float64(g), float64(ng), p.Cfg.Format, p.Cfg.Det.GMin, p.Cfg.GCeil())
	}
}

// depress applies one LTD step and counts it.
func (p *Plasticity) depress(pre, post int, step uint64) {
	p.applyDep(pre, post, step)
	p.depApplied.Add(1)
}

// OnPostSpikeRange applies the learning rule for a post-neuron spike at absolute
// time now (ms). lastPre[i] holds the last spike time of input i (Never if
// it has not spiked). step is the global simulation step index used to key
// stochastic draws.
//
// Both rules are post-event rules over every input synapse, classifying it
// by the age of its last pre spike (Δt = now − lastPre):
//
//   - Deterministic baseline: Δt ≤ WindowMS → LTP (eq. 4); otherwise LTD
//     (eq. 5). Every post spike moves every synapse.
//   - Stochastic: the synaptic switch fires probabilistically (the
//     Srinivasan-style stochastic synapse): LTP with probability
//     P_pot(Δt) = γ_pot·e^(−Δt/τ_pot) (eq. 6); failing that, LTD with
//     probability P_dep per eq. 7 evaluated from the window edge
//     (StochParams.PDepEvent). Loosely correlated events therefore change
//     conductance only rarely — the paper's explanation for why stochastic
//     STDP retains memory and survives coarse quantization (§IV-D).
//
// Only input synapses [lo, hi) of the post column move: disjoint pre
// ranges of one column never race, so a caller may split an update.
//
//psslint:noalloc
func (p *Plasticity) OnPostSpikeRange(post int, now float64, lastPre []float64, step uint64, lo, hi int) {
	w := p.Cfg.Det.WindowMS
	switch p.Cfg.Kind {
	case Deterministic:
		for pre := lo; pre < hi; pre++ {
			if now-lastPre[pre] <= w {
				p.potentiate(pre, post, step)
			} else {
				p.depress(pre, post, step)
			}
		}
	case Stochastic:
		for pre := lo; pre < hi; pre++ {
			dt := now - lastPre[pre]
			if pp := p.Cfg.Stoch.PPot(dt); pp > 0 {
				if rng.Bernoulli(pp, p.Cfg.Seed, tagPotRoll, step, uint64(pre), uint64(post)) {
					p.potentiate(pre, post, step)
					continue
				}
			}
			if pd := p.Cfg.Stoch.PDepEvent(dt, w); pd > 0 {
				if rng.Bernoulli(pd, p.Cfg.Seed, tagDepRoll, step, uint64(pre), uint64(post)) {
					p.depress(pre, post, step)
				}
			}
		}
	}
}
