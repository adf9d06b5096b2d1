package synapse

import (
	"fmt"
	"math"
	"math/bits"

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
// thresholds NewPlasticity tables, beside one more slot for a pre that
// never fired. At a whole-ms step the absolute clock and every last-pre
// time are exact integers, so every age is too, and last-pre times reset
// each presentation: 1024 ms covers both paper presentation lengths (100
// and 500 ms). Older or fractional ages evaluate the closed form.
const ageTabLen = 1024

// rollBlockLen is the number of pres the stochastic kernel decides at once:
// one bit each in a uint64 mask.
const rollBlockLen = 64

// Plasticity applies STDP updates to a conductance matrix according to a
// Config. It owns no RNG state: every stochastic decision is a pure function
// of (Config.Seed, event tag, step, pre, post), so the weights a run
// learns depend only on the post spikes it presents, in their order. The
// network applies each post spike's column update on the presenting
// goroutine.
type Plasticity struct {
	// Cfg is read-only after NewPlasticity: the fast-step codes, roll keys
	// and age tables below are derived from it.
	Cfg Config
	M   *Matrix

	// fastStep marks the flat-step code path: the matrix uses the packed
	// store and the format is ≤8 bits, so potMagnitude/depMagnitude are
	// pinned to the quantization step (§III-C) and both bounds sit on the
	// grid. Every update is then exactly a saturating ±1 on one packed
	// lane (fixed.Packing.IncSat/DecSat) — quantization has zero residue,
	// so the rounding option (and its stochastic roll, a pure
	// counter-based function with no stream state) never engages — and
	// never leaves the integer domain. Bit-identical to the scalar
	// AddSat/SubSat path by construction; TestIncDecSatMatchScalar in
	// internal/fixed and the golden wall pin it. simcheck builds take the
	// scalar path instead so the per-update WeightUpdate assertions still
	// fire.
	fastStep  bool
	ceilCode  uint32 // GCeil as a lane code (valid when fastStep)
	floorCode uint32 // Det.GMin as a lane code (valid when fastStep)

	// Stochastic-rule state, fixed at NewPlasticity (see rollThr and
	// DESIGN.md §11). potKey/depKey are the roll hashes folded over (Seed,
	// tag); thr[k] = thrAt(k) for whole-ms ages k < ageTabLen and
	// thr[ageTabLen] = thrAt(+Inf), the pre that never fired. Nil under the
	// deterministic rule.
	potKey, depKey uint64
	thr            []rollThr
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
		p.thr = make([]rollThr, ageTabLen+1)
		for k := range ageTabLen {
			p.thr[k] = p.thrAt(float64(k))
		}
		p.thr[ageTabLen] = p.thrAt(math.Inf(1))
	}
	return p, nil
}

// applyPot performs the arithmetic of one LTP step to synapse (pre, post)
// through the saturating update helper, which quantizes with the configured
// rounding option (the fixedrange analyzer forbids raw arithmetic on the
// Weight).
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
// through the saturating update helper.
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

// rollKeys folds the event step into the (Seed, tag) roll keys, giving the
// hash states shared by every synapse a post spike at step rolls.
func (p *Plasticity) rollKeys(step uint64) (hPot, hDep uint64) {
	return rng.HashMix(p.potKey, step), rng.HashMix(p.depKey, step)
}

// rollThr holds the stochastic rule's two decisions at one age as integer
// thresholds on the 53-bit draw k = Hash64(Seed, tag, step, pre, post) >> 11:
// LTP passes when its draw is below pot, LTD when its draw is below dep.
type rollThr struct{ pot, dep uint64 }

// drawThreshold is the threshold at which a 53-bit draw k decides as the
// stochastic rule's roll against probability prob under ceiling gamma:
// u < gamma && rng.Bernoulli's decision, with u = Float64From's k·2⁻⁵³.
// For prob > 0 that decision is u < min(prob, gamma), since γ ≤ 1 and
// Bernoulli passes every u < 1 when prob ≥ 1. k·2⁻⁵³ < x is k < x·2⁵³,
// exact as a power-of-two scaling, and for integer k that is
// k < ceil(x·2⁵³). prob never exceeds gamma (PPot and PDepEvent are γ
// times a factor ≤ 1), so the min only states the ceiling. A prob that is
// not above 0, NaN included, never passes.
func drawThreshold(prob, gamma float64) uint64 {
	if !(prob > 0) {
		return 0
	}
	return uint64(math.Ceil(math.Min(prob, gamma) * (1 << 53)))
}

// thrAt is the closed form of the thresholds at age ms: LTP against
// P_pot(age) (eq. 6) where that can be non-zero (finite age ≥ 0), LTD
// against P_dep = PDepEvent(age, W) (eq. 7).
func (p *Plasticity) thrAt(age float64) rollThr {
	st := &p.Cfg.Stoch
	var t rollThr
	if age >= 0 && age <= math.MaxFloat64 {
		t.pot = drawThreshold(st.PPot(age), st.GammaPot)
	}
	t.dep = drawThreshold(st.PDepEvent(age, p.Cfg.Det.WindowMS), st.GammaDep)
	return t
}

// rollThr returns the thresholds at age ms from the table, and whether
// age has a slot there: a whole number of ms below ageTabLen, or +Inf, a
// pre that never fired, in the last slot. Any other age takes thrAt. The
// range is checked before converting, because converting an out-of-range
// float to int is implementation-defined. The closed form is left to the
// caller so that this stays within the inlining budget.
func (p *Plasticity) rollThr(age float64) (rollThr, bool) {
	k := ageTabLen
	if age >= 0 && age < ageTabLen {
		if k = int(age); float64(k) != age {
			return rollThr{}, false
		}
	} else if !(age > math.MaxFloat64) {
		return rollThr{}, false
	}
	return p.thr[k], true
}

// rollDrawsGo fills pot[i] and dep[i] with the 53-bit draws of synapse
// (lo+i, post) under the roll keys hPot and hDep:
// HashFin(HashMix(HashMix(h, pre), post)) >> 11. That is the draw
// rng.Bernoulli(P, Seed, tag, step, pre, post) takes: Hash64 is HashInit,
// one HashMix per counter and HashFin, so finishing the folded
// (Seed, tag, step) state with pre and post yields the same word. It is
// the oracle of the AVX-512 kernel and the fallback where that kernel
// does not run. dep must be at least as long as pot.
//
//psslint:noalloc
func rollDrawsGo(hPot, hDep uint64, post, lo int, pot, dep []uint64) {
	dep = dep[:len(pot)]
	for i := range pot {
		pre := uint64(lo + i)
		pot[i] = rng.HashFin(rng.HashMix(rng.HashMix(hPot, pre), uint64(post))) >> 11
		dep[i] = rng.HashFin(rng.HashMix(rng.HashMix(hDep, pre), uint64(post))) >> 11
	}
}

// rollRange runs the stochastic rule for the synapses [lo, hi) of column
// post at step. It works in blocks of rollBlockLen pres. A block takes every draw first
// (rollDraws), then decides each synapse with two integer compares against
// the thresholds at its age, building a pot and a dep mask in which a
// synapse that potentiates does not depress; then it applies the set bits
// only. Each decision is what rng.Bernoulli returns against the
// closed-form P_pot(age) (eq. 6) and, failing that, P_dep =
// PDepEvent(age, W) (eq. 7) (see drawThreshold); taking the LTD draw of a
// synapse that potentiates changes no outcome, since every draw is a pure
// function of its counters. The draws live on the stack, so a post spike
// allocates nothing.
//
//psslint:noalloc
func (p *Plasticity) rollRange(post int, now float64, lastPre []float64, step uint64, lo, hi int) {
	hPot, hDep := p.rollKeys(step)
	var pot, dep [rollBlockLen]uint64
	for ; lo < hi; lo += rollBlockLen {
		n := min(hi-lo, rollBlockLen)
		rollDraws(hPot, hDep, post, lo, pot[:n], dep[:n])
		var potMask, depMask uint64
		for i, last := range lastPre[lo : lo+n] {
			t, ok := p.rollThr(now - last)
			if !ok {
				t = p.thrAt(now - last)
			}
			var bp, bd uint64
			if pot[i] < t.pot {
				bp = 1
			}
			if dep[i] < t.dep {
				bd = 1
			}
			potMask |= bp << i
			depMask |= bd << i
		}
		depMask &^= potMask
		for m := potMask; m != 0; m &= m - 1 {
			p.applyPot(lo+bits.TrailingZeros64(m), post, step)
		}
		for m := depMask; m != 0; m &= m - 1 {
			p.applyDep(lo+bits.TrailingZeros64(m), post, step)
		}
	}
}

// OnPostSpike applies the learning rule for a post-neuron spike at absolute
// time now (ms) to every input synapse of column post. lastPre[i] holds
// the last spike time of input i (Never if it has not spiked), one entry
// per input; a shorter slice panics. step is the global simulation step
// index used to key stochastic draws.
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
//     column runs through rollRange, rollBlockLen pres at a time.
//
//psslint:noalloc
func (p *Plasticity) OnPostSpike(post int, now float64, lastPre []float64, step uint64) {
	lastPre = lastPre[:p.M.NPre]
	switch p.Cfg.Kind {
	case Deterministic:
		w := p.Cfg.Det.WindowMS
		for pre, last := range lastPre {
			if now-last <= w {
				p.applyPot(pre, post, step)
			} else {
				p.applyDep(pre, post, step)
			}
		}
	case Stochastic:
		p.rollRange(post, now, lastPre, step, 0, len(lastPre))
	}
}
