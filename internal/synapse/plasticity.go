package synapse

import (
	"fmt"
	"math"
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

// ageTabLen is the number of whole-millisecond ages whose stochastic-rule
// probabilities NewPlasticity tables. At a whole-ms step the absolute clock
// and every last-pre time are exact integers, so every age is too, and
// last-pre times reset each presentation: 1024 ms covers both paper
// presentation lengths (100 and 500 ms). Older or fractional ages evaluate
// the closed form.
const ageTabLen = 1024

// Plasticity applies STDP updates to a conductance matrix according to a
// Config. It owns no RNG state: every stochastic decision is a pure function
// of (Config.Seed, event tag, step, pre, post), which makes updates safe to
// apply from multiple goroutines as long as no two goroutines touch the same
// post neuron (the engine partitions by post index).
type Plasticity struct {
	// Cfg is read-only after NewPlasticity: the fast-step codes, roll keys
	// and age tables below are derived from it.
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

	// Stochastic-rule state, fixed at NewPlasticity (see stochRoll and
	// DESIGN.md §11). potKey/depKey are the roll hashes folded over (Seed,
	// tag); potTab[k] = Stoch.PPot(k) and depTab[k] = Stoch.PDepEvent(k, W)
	// for whole-ms ages k < ageTabLen. Nil tables under the deterministic
	// rule.
	potKey, depKey uint64
	potTab, depTab []float64

	// Event counters (diagnostics). Updated atomically, once per call:
	// range updates for different posts run on different workers.
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
	if cfg.Kind == Stochastic {
		p.potKey = rng.HashMix(rng.HashInit(cfg.Seed), tagPotRoll)
		p.depKey = rng.HashMix(rng.HashInit(cfg.Seed), tagDepRoll)
		p.potTab = make([]float64, ageTabLen)
		p.depTab = make([]float64, ageTabLen)
		for k := range p.potTab {
			p.potTab[k] = cfg.Stoch.PPot(float64(k))
			p.depTab[k] = cfg.Stoch.PDepEvent(float64(k), cfg.Det.WindowMS)
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

// count publishes a batch's locally accumulated update counts: at most two
// atomic adds per call instead of one per update.
func (p *Plasticity) count(pots, deps uint64) {
	if pots > 0 {
		p.potApplied.Add(pots)
	}
	if deps > 0 {
		p.depApplied.Add(deps)
	}
}

// applyPot performs the arithmetic of one LTP step to synapse (pre, post)
// through the saturating update helper, which quantizes with the configured
// rounding option (the fixedrange analyzer forbids raw arithmetic on the
// Weight). It does not touch the diagnostic counters: callers count locally
// and publish once per batch.
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

// outcome is the result of one synapse's stochastic rolls.
type outcome uint8

const (
	noUpdate outcome = iota
	potUpdate
	depUpdate
)

// rollKeys folds the event step into the (Seed, tag) roll keys, giving the
// hash states shared by every synapse a post spike at step rolls.
func (p *Plasticity) rollKeys(step uint64) (hPot, hDep uint64) {
	return rng.HashMix(p.potKey, step), rng.HashMix(p.depKey, step)
}

// stochRoll is the stochastic rule's decision for synapse (pre, post) whose
// pre last fired age ms before the post spike: LTP with probability
// P_pot(age) (eq. 6); failing that, LTD with probability
// P_dep = PDepEvent(age, W) (eq. 7). hPot/hDep are rollKeys of the event's
// step. Both schedules — the dense OnPostSpikeRange and the lazy
// Queue.FlushRow — decide through this one function.
//
// It returns exactly what rng.Bernoulli(P, Seed, tag, step, pre, post)
// returns against the closed-form P, while skipping work the outcome does
// not depend on:
//
//   - The draw is the same Hash64: Hash64 is HashInit, one HashMix per
//     counter and HashFin, so finishing the folded (Seed, tag, step) state
//     with pre and post yields the same word. The finish is spelled out at
//     both rolls: as a helper it exceeds the inlining budget, and the call
//     per roll shows in the post-spike benchmarks.
//   - P ≤ γ: eq. 6's exponential is ≤ 1 at age ≥ 0 and PDepEvent clamps
//     its own to 1, so a draw u ≥ γ fails whatever P is and the exponential
//     is evaluated only below the ceiling. There Bernoulli's own decision
//     (P > 0 and, unless P ≥ 1, u < P) is kept as is.
//   - P is read from the age tables exactly when age is a whole number of
//     ms inside them: the same function at the same input.
//
// LTP is rolled only where P_pot can be non-zero (finite age ≥ 0);
// elsewhere Bernoulli returns false without a draw.
//
//psslint:noalloc
func (p *Plasticity) stochRoll(age float64, hPot, hDep uint64, pre, post int) outcome {
	st := &p.Cfg.Stoch
	if age >= 0 && age < math.Inf(1) {
		if u := rng.Float64From(rng.HashFin(rng.HashMix(rng.HashMix(hPot, uint64(pre)), uint64(post)))); u < st.GammaPot {
			pp := 0.0
			if k, ok := ageIndex(age); ok {
				pp = p.potTab[k]
			} else {
				pp = st.PPot(age)
			}
			if passes(u, pp) {
				return potUpdate
			}
		}
	}
	if u := rng.Float64From(rng.HashFin(rng.HashMix(rng.HashMix(hDep, uint64(pre)), uint64(post)))); u < st.GammaDep {
		pd := 0.0
		if k, ok := ageIndex(age); ok {
			pd = p.depTab[k]
		} else {
			pd = st.PDepEvent(age, p.Cfg.Det.WindowMS)
		}
		if passes(u, pd) {
			return depUpdate
		}
	}
	return noUpdate
}

// ageIndex reports whether age is a whole number of ms inside the age
// tables, and its index. The range is checked before converting, because
// converting an out-of-range float to int is implementation-defined.
func ageIndex(age float64) (int, bool) {
	if age >= 0 && age < ageTabLen {
		if k := int(age); float64(k) == age {
			return k, true
		}
	}
	return 0, false
}

// passes is rng.Bernoulli's decision for a draw u already taken: true with
// probability prob, saturating outside [0, 1].
func passes(u, prob float64) bool {
	return prob > 0 && (prob >= 1 || u < prob)
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
//     STDP retains memory and survives coarse quantization (§IV-D). The
//     decision is stochRoll's.
//
// Only input synapses [lo, hi) of the post column move: disjoint pre
// ranges of one column never race, so a caller may split an update.
//
//psslint:noalloc
func (p *Plasticity) OnPostSpikeRange(post int, now float64, lastPre []float64, step uint64, lo, hi int) {
	var pots, deps uint64
	switch p.Cfg.Kind {
	case Deterministic:
		w := p.Cfg.Det.WindowMS
		for pre := lo; pre < hi; pre++ {
			if now-lastPre[pre] <= w {
				p.applyPot(pre, post, step)
				pots++
			} else {
				p.applyDep(pre, post, step)
				deps++
			}
		}
	case Stochastic:
		hPot, hDep := p.rollKeys(step)
		for pre := lo; pre < hi; pre++ {
			switch p.stochRoll(now-lastPre[pre], hPot, hDep, pre, post) {
			case potUpdate:
				p.applyPot(pre, post, step)
				pots++
			case depUpdate:
				p.applyDep(pre, post, step)
				deps++
			}
		}
	}
	p.count(pots, deps)
}
