// Package neuron implements the leaky integrate-and-fire (LIF) spiking
// neuron model used by ParallelSpikeSim (paper §II-A).
//
// Membrane dynamics follow the paper's eqs. (1)–(2):
//
//	dv/dt = a + b·v + c·I
//	v    := v_reset   when v > v_threshold  (spike)
//
// integrated with forward Euler at a fixed step dt (milliseconds). The input
// current I of a neuron is the conductance-weighted sum of its presynaptic
// spikes (eq. 3); that sum is computed by the network/engine layers and
// passed in per step.
//
// The package also provides the winner-take-all inhibition clamp: the paper's
// layer-2 neurons respond to a layer-1 spike by inhibiting all *other*
// layer-1 neurons for t_inh. Here the population tracks an inhibited-until
// timestamp per neuron; inhibited neurons hold at v_reset and cannot spike.
package neuron

import (
	"errors"
	"fmt"
	"math"

	"parallelspikesim/internal/check"
)

// LIFParams holds the coefficients of the paper's LIF model. All voltages
// are in the paper's (dimensionless mV-like) units, time in milliseconds.
type LIFParams struct {
	A float64 // constant drive term a
	B float64 // leak coefficient b (must be negative for a stable membrane)
	C float64 // current coupling c

	VThreshold float64 // spike threshold (paper: −60.2)
	VReset     float64 // post-spike reset (paper: −74.7)
	VInit      float64 // initial membrane potential (paper: −70.0)

	RefractoryMS float64 // absolute refractory period after a spike (ms)

	// Homeostasis (adaptive threshold): each spike raises the neuron's
	// effective threshold by ThetaPlus, which decays back with time
	// constant ThetaDecayMS. ThetaPlus == 0 disables it. The paper does
	// not spell this mechanism out, but winner-take-all unsupervised STDP
	// of this family (Diehl & Cook 2015, Querlioz 2013 — both cited as
	// the baseline lineage) requires it so no single neuron captures
	// every pattern; see DESIGN.md.
	ThetaPlus    float64
	ThetaDecayMS float64
}

// PaperLIF returns the exact parameter set from paper §III-D.
func PaperLIF() LIFParams {
	return LIFParams{
		A:          -6.77,
		B:          -0.0989,
		C:          0.314,
		VThreshold: -60.2,
		VReset:     -74.7,
		VInit:      -70.0,
		// The paper does not state a refractory period; the membrane
		// reset plus WTA inhibition play that role. Kept at 0 by
		// default and exposed for ablations.
		RefractoryMS: 0,
	}
}

// Validate checks the parameter set for physical consistency.
func (p LIFParams) Validate() error {
	switch {
	case p.B >= 0:
		return errors.New("neuron: leak coefficient B must be negative")
	case p.VReset >= p.VThreshold:
		return fmt.Errorf("neuron: VReset (%v) must be below VThreshold (%v)", p.VReset, p.VThreshold)
	case p.RefractoryMS < 0:
		return errors.New("neuron: negative refractory period")
	case p.ThetaPlus < 0:
		return errors.New("neuron: negative ThetaPlus")
	case p.ThetaPlus > 0 && p.ThetaDecayMS <= 0:
		return errors.New("neuron: ThetaPlus requires positive ThetaDecayMS")
	case math.IsNaN(p.A) || math.IsNaN(p.C):
		return errors.New("neuron: NaN coefficient")
	default:
		return nil
	}
}

// RestPotential returns the zero-input fixed point v* = −A/B of the
// membrane equation.
func (p LIFParams) RestPotential() float64 { return -p.A / p.B }

// RheobaseCurrent returns the minimum constant current for which the
// membrane fixed point reaches threshold, i.e. the onset current of the f–I
// curve: I_rh = (−A − B·V_th)/C.
func (p LIFParams) RheobaseCurrent() float64 {
	return (-p.A - p.B*p.VThreshold) / p.C
}

// SteadyRate returns the analytic firing rate (Hz) of the LIF model under a
// constant current I, ignoring refractory time: the Euler-free solution of
// the linear ODE gives the inter-spike interval
//
//	T = (1/|B|)·ln((v∞ − v_reset)/(v∞ − v_th)),  v∞ = (A + C·I)/(−B)
//
// and rate = 1000/T (time in ms). Returns 0 below rheobase.
func (p LIFParams) SteadyRate(current float64) float64 {
	vInf := (p.A + p.C*current) / (-p.B)
	if vInf <= p.VThreshold {
		return 0
	}
	interval := (1 / -p.B) * math.Log((vInf-p.VReset)/(vInf-p.VThreshold))
	interval += p.RefractoryMS
	if interval <= 0 {
		return 0
	}
	return 1000 / interval
}

// Population is a fixed-size group of LIF neurons stored
// structure-of-arrays for cache-friendly stepping (the layout the paper's
// GPU kernels use).
type Population struct {
	Params LIFParams

	// FreezeTheta suspends homeostatic adaptation (no bump on spike, no
	// decay): evaluation mode, so labeling/inference do not perturb the
	// thresholds learned during training.
	FreezeTheta bool

	V              []float64 // membrane potentials
	theta          []float64 // adaptive threshold offsets (homeostasis)
	refractoryTill []float64 // absolute time (ms) until which each neuron is refractory
	inhibitedTill  []float64 // absolute time (ms) until which each neuron is WTA-inhibited
	spikeCount     []uint64  // total spikes emitted per neuron
}

// NewPopulation allocates n neurons at the initial membrane potential.
func NewPopulation(n int, params LIFParams) (*Population, error) {
	if n <= 0 {
		return nil, fmt.Errorf("neuron: population size %d", n)
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	p := &Population{
		Params:         params,
		V:              make([]float64, n),
		theta:          make([]float64, n),
		refractoryTill: make([]float64, n),
		inhibitedTill:  make([]float64, n),
		spikeCount:     make([]uint64, n),
	}
	for i := range p.V {
		p.V[i] = params.VInit
	}
	return p, nil
}

// Len returns the number of neurons.
func (p *Population) Len() int { return len(p.V) }

// Reset restores all neurons to the initial potential and clears all
// refractory/inhibition state and spike counters.
func (p *Population) Reset() {
	for i := range p.V {
		p.V[i] = p.Params.VInit
		p.theta[i] = 0
		p.refractoryTill[i] = 0
		p.inhibitedTill[i] = 0
		p.spikeCount[i] = 0
	}
}

// ResetMembranes returns membranes to VInit and clears timers but keeps
// spike counters and adaptive thresholds (homeostasis persists across
// image presentations); used between images.
func (p *Population) ResetMembranes() {
	for i := range p.V {
		p.V[i] = p.Params.VInit
		p.refractoryTill[i] = 0
		p.inhibitedTill[i] = 0
	}
}

// Theta returns the adaptive threshold offsets (live view).
func (p *Population) Theta() []float64 { return p.theta }

// SpikeCounts returns the per-neuron cumulative spike counts (live view).
func (p *Population) SpikeCounts() []uint64 { return p.spikeCount }

// ClearSpikeCounts zeroes the per-neuron spike counters.
func (p *Population) ClearSpikeCounts() {
	for i := range p.spikeCount {
		p.spikeCount[i] = 0
	}
}

// Inhibit suppresses every neuron except `except` until absolute time
// `until` (ms). Pass except < 0 to inhibit all. Later-expiring inhibitions
// are not shortened.
func (p *Population) Inhibit(except int, until float64) {
	for i := range p.inhibitedTill {
		if i == except {
			continue
		}
		if until > p.inhibitedTill[i] {
			p.inhibitedTill[i] = until
		}
	}
}

// Inhibited reports whether neuron i is inhibited at time now.
func (p *Population) Inhibited(i int, now float64) bool {
	return now < p.inhibitedTill[i]
}

// StepRange integrates neurons [lo, hi) one Euler step of dt ms at absolute
// time now, given per-neuron input currents. Indices of neurons that spiked
// are appended to spikes, which is returned. The range form is the unit of
// work for the parallel engine; StepAll covers the whole population.
//
// Semantics per neuron:
//   - inhibited or refractory neurons hold at VReset and do not integrate;
//   - otherwise v += dt·(A + B·v + C·I);
//   - if v > VThreshold: record a spike, reset v, start refractory timer.
//
// It is CandidatesRange with every candidate fired: there is one LIF body.
//
//psslint:noalloc
func (p *Population) StepRange(lo, hi int, dt, now float64, current []float64, spikes []int) []int {
	n := len(spikes)
	spikes = p.CandidatesRange(lo, hi, dt, now, current, spikes)
	for _, i := range spikes[n:] {
		p.Fire(i, now)
	}
	return spikes
}

// StepAll integrates the entire population one step. See StepRange.
func (p *Population) StepAll(dt, now float64, current []float64, spikes []int) []int {
	return p.StepRange(0, p.Len(), dt, now, current, spikes)
}

// CandidatesRange integrates neurons [lo, hi) one Euler step like StepRange
// but does NOT commit spikes: neurons whose membrane crosses threshold are
// left above threshold and their indices appended to out, ascending. The
// caller then decides which candidates actually fire (Fire) and which are
// suppressed (Suppress) — the mechanism behind intra-step winner-take-all,
// where the earliest crosser's layer-2 inhibition must beat same-step
// rivals.
//
// Where fixed.AVX2 holds, the AVX2 kernel steps the lanes four at a time
// and candidatesGo the at most three left over; the kernel rounds every
// operation as candidatesGo does, so the membranes, thresholds and
// candidates do not depend on which ran.
//
//psslint:noalloc
func (p *Population) CandidatesRange(lo, hi int, dt, now float64, current []float64, out []int) []int {
	adapt := p.Params.ThetaPlus > 0 && !p.FreezeTheta
	thetaDecay := 1.0
	if adapt {
		thetaDecay = math.Exp(-dt / p.Params.ThetaDecayMS)
	}
	lo, out = p.candidatesVec(lo, hi, dt, now, thetaDecay, adapt, current, out)
	return p.candidatesGo(lo, hi, dt, now, thetaDecay, adapt, current, out)
}

// candidatesGo is CandidatesRange's scalar body, one lane at a time: the
// oracle of the AVX2 kernel and the fallback for the lanes it leaves.
// Each lane decays theta unless adaptation is off, holds at VReset while
// inhibited or refractory, and otherwise takes the Euler step and is a
// candidate when it exceeds VThreshold + theta.
//
//psslint:noalloc
func (p *Population) candidatesGo(lo, hi int, dt, now, thetaDecay float64, adapt bool, current []float64, out []int) []int {
	prm := &p.Params
	for i := lo; i < hi; i++ {
		if adapt {
			p.theta[i] *= thetaDecay
		}
		if now < p.inhibitedTill[i] || now < p.refractoryTill[i] {
			p.V[i] = prm.VReset
			continue
		}
		v := p.V[i]
		// The conversions round each product before its add, so no
		// compiler fuses them into FMAs, which the AVX2 kernel does not
		// use.
		v += float64(dt * (prm.A + float64(prm.B*v) + float64(prm.C*current[i])))
		if check.Enabled {
			check.Finite("neuron: membrane after Euler step", v)
		}
		p.V[i] = v
		if v > prm.VThreshold+p.theta[i] {
			out = append(out, i)
		}
	}
	return out
}

// Overshoot returns how far neuron i's membrane sits above its effective
// threshold (positive for crossing candidates). Larger overshoot means the
// neuron would have crossed earlier within the step, so it ranks first in
// the winner-take-all tiebreak.
func (p *Population) Overshoot(i int) float64 {
	return p.V[i] - (p.Params.VThreshold + p.theta[i])
}

// Fire commits a spike for neuron i at time now: reset, refractory timer,
// homeostatic threshold bump (unless frozen), spike counter.
func (p *Population) Fire(i int, now float64) {
	p.V[i] = p.Params.VReset
	p.refractoryTill[i] = now + p.Params.RefractoryMS
	if !p.FreezeTheta {
		p.theta[i] += p.Params.ThetaPlus
	}
	p.spikeCount[i]++
}

// Suppress resets neuron i's membrane without a spike — the fate of a
// same-step threshold crosser that lost the winner-take-all race.
func (p *Population) Suppress(i int) {
	p.V[i] = p.Params.VReset
}

// FICurvePoint simulates a single neuron under constant current for
// durationMS at step dt and returns the measured firing rate in Hz.
func FICurvePoint(params LIFParams, current, durationMS, dt float64) (float64, error) {
	pop, err := NewPopulation(1, params)
	if err != nil {
		return 0, err
	}
	in := []float64{current}
	var spikes []int
	n := 0
	steps := int(durationMS / dt)
	for s := 0; s < steps; s++ {
		spikes = pop.StepAll(dt, float64(s)*dt, in, spikes[:0])
		n += len(spikes)
	}
	return float64(n) * 1000 / durationMS, nil
}

// FICurve sweeps the given constant currents and returns the measured firing
// rate (Hz) for each — the data behind the paper's Fig 1(a).
func FICurve(params LIFParams, currents []float64, durationMS, dt float64) ([]float64, error) {
	rates := make([]float64, len(currents))
	for i, c := range currents {
		r, err := FICurvePoint(params, c, durationMS, dt)
		if err != nil {
			return nil, err
		}
		rates[i] = r
	}
	return rates, nil
}
