package encode

import (
	"errors"
	"fmt"
	"math/bits"
)

// Plan is a fully materialized spike schedule for one presentation: every
// (step, pixel) spike of a Source over a fixed step count, in CSR-like
// layout plus a per-step bitset membership view. Because every Source
// decision is a pure function of (seed, presentation, global step, pixel),
// a plan built ahead of time — possibly on another goroutine — replays
// bit-identically to stepping the source inline, and the plan of steps
// [lo, hi) keyed at startStep+lo holds exactly those steps of the plan
// keyed at startStep: network.Core builds a presentation in such chunks.
//
// A plan is immutable after BuildPlan/BuildPlanInto and safe for concurrent
// reads. BuildPlanInto may recycle a previously built plan's buffers, so a
// recycled plan must not be read concurrently with its rebuild.
type Plan struct {
	startStep uint64 // global step of the plan's first step
	dt        float64
	numTrains int // pixel count the plan was built for

	offsets []int   // per-step prefix offsets into spikes; len = steps+1
	spikes  []int32 // spiking pixels, ascending within each step

	// bits is the per-step bitset view: bit px of step s lives at
	// bits[s*words + px/64] & (1 << (px % 64)). It answers "did pixel px
	// spike on step s" in O(1) without scanning the step's CSR row.
	words int
	bits  []uint64

	// Build scratch, recycled across BuildPlanInto calls.
	ev []uint64 // Regular: staged (step<<32 | pixel) events
}

// BuildPlan materializes the source's spikes for `steps` steps of width dt
// ms starting at global step startStep. The network binds a presentation's
// source with presentation == its first step, and builds each chunk of it
// from that source with startStep at the chunk's first step; thresholds
// are prepared for dt automatically.
func (s *Source) BuildPlan(startStep uint64, dt float64, steps int) *Plan {
	return s.BuildPlanInto(nil, startStep, dt, steps)
}

// BuildPlanInto is BuildPlan reusing the buffers of a previously built plan
// (nil allocates a fresh one): after the first build of a given shape,
// rebuilding is allocation-free. It runs the event-driven sparse generator
// (see events.go), which visits O(spikes) work for Regular trains and two
// hash rounds per (step, active pixel) for Poisson trains — never the dense
// per-(step, pixel) Hash64 of Source.Step — yet produces bit-identical spike
// sets. A source not yet Prepared for dt is Prepared here, which writes
// it: callers that build from one source on several goroutines at once
// must Prepare it for dt first, after which concurrent builds only read
// it. No build may race with Prepare or Rebind.
func (s *Source) BuildPlanInto(p *Plan, startStep uint64, dt float64, steps int) *Plan {
	if p == nil {
		p = &Plan{}
	}
	p.startStep = startStep
	p.dt = dt
	p.numTrains = len(s.rates)
	p.words = (p.numTrains + 63) / 64
	if cap(p.offsets) < steps+1 {
		p.offsets = make([]int, steps+1)
	} else {
		p.offsets = p.offsets[:steps+1]
		for i := range p.offsets {
			p.offsets[i] = 0
		}
	}
	p.spikes = p.spikes[:0]
	nb := steps * p.words
	if cap(p.bits) < nb {
		p.bits = make([]uint64, nb)
	} else {
		p.bits = p.bits[:nb]
		for i := range p.bits {
			p.bits[i] = 0
		}
	}
	switch s.Kind {
	case Poisson:
		if s.thresholds == nil || s.thrDT != dt {
			s.Prepare(dt)
		}
		s.buildPoisson(p, steps)
	case Regular:
		s.buildRegular(p, steps)
	}
	return p
}

// PlanFromEvents reconstructs a plan from a raw CSR event stream — the form
// a plan would take coming off a wire or out of a fuzzer — rejecting hostile
// input: non-monotone or out-of-range offsets, pixels outside [0, numTrains),
// duplicate or descending pixels within a step, and truncated streams whose
// final offset does not cover the spike payload. The inputs are copied; on
// success the plan's bitset view is rebuilt from the events and the result
// passes Validate.
func PlanFromEvents(startStep uint64, dt float64, numTrains int, offsets []int, spikes []int32) (*Plan, error) {
	if numTrains <= 0 {
		return nil, fmt.Errorf("encode: plan with %d trains", numTrains)
	}
	if len(offsets) < 1 {
		return nil, errors.New("encode: truncated plan: no step offsets")
	}
	p := &Plan{
		startStep: startStep,
		dt:        dt,
		numTrains: numTrains,
		words:     (numTrains + 63) / 64,
		offsets:   append([]int(nil), offsets...),
		spikes:    append([]int32(nil), spikes...),
	}
	steps := len(p.offsets) - 1
	p.bits = make([]uint64, steps*p.words)
	// Bounds must hold before the offsets can be trusted as slice indices.
	if p.offsets[0] != 0 {
		return nil, fmt.Errorf("encode: plan offsets start at %d, want 0", p.offsets[0])
	}
	for st := 0; st < steps; st++ {
		lo, hi := p.offsets[st], p.offsets[st+1]
		if lo < 0 || hi < lo || hi > len(p.spikes) {
			return nil, fmt.Errorf("encode: plan offsets[%d:%d] = [%d, %d) out of range over %d spikes", st, st+2, lo, hi, len(p.spikes))
		}
		row := p.bits[st*p.words : (st+1)*p.words]
		for _, px := range p.spikes[lo:hi] {
			if px < 0 || int(px) >= numTrains {
				return nil, fmt.Errorf("encode: plan spike pixel %d out of range [0, %d)", px, numTrains)
			}
			row[px>>6] |= 1 << (uint32(px) & 63)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// StartStep returns the global step the plan was built for.
func (p *Plan) StartStep() uint64 { return p.startStep }

// Steps returns the number of simulation steps the plan covers.
func (p *Plan) Steps() int { return len(p.offsets) - 1 }

// Spikes returns the total spike count across all steps.
func (p *Plan) Spikes() int { return len(p.spikes) }

// NumTrains returns the pixel count the plan was built for.
func (p *Plan) NumTrains() int { return p.numTrains }

// Step appends the pixel indices spiking on presentation-relative step s
// (ascending, exactly as Source.Step would emit them) and returns the
// extended slice.
//
//psslint:noalloc
func (p *Plan) Step(s int, dst []int) []int {
	for _, px := range p.spikes[p.offsets[s]:p.offsets[s+1]] {
		dst = append(dst, int(px))
	}
	return dst
}

// StepView returns the spiking pixels of presentation-relative step s as a
// zero-copy view into the plan's CSR payload, ascending. The view is only
// valid while the plan is; callers must not modify it.
//
//psslint:noalloc
func (p *Plan) StepView(s int) []int32 {
	return p.spikes[p.offsets[s]:p.offsets[s+1]]
}

// StepBits returns step s's spike membership bitset: bit px%64 of word
// px/64 is set iff pixel px spikes on that step. Zero-copy; read-only.
//
//psslint:noalloc
func (p *Plan) StepBits(s int) []uint64 {
	return p.bits[s*p.words : (s+1)*p.words]
}

// Contains reports whether pixel px spikes on presentation-relative step s
// in O(1) via the bitset view.
//
//psslint:noalloc
func (p *Plan) Contains(s int, px int) bool {
	if px < 0 || px >= p.numTrains {
		return false
	}
	return p.bits[s*p.words+px>>6]&(1<<(uint(px)&63)) != 0
}

// Validate checks the plan's structural invariants: monotone offsets rooted
// at 0 and covering the spike payload exactly, pixels in range and strictly
// ascending within each step, and a bitset view that agrees with the CSR
// rows bit for bit. Simcheck builds assert it on every presentation.
func (p *Plan) Validate() error {
	if len(p.offsets) == 0 {
		return errors.New("encode: plan has no step offsets")
	}
	if p.numTrains <= 0 {
		return fmt.Errorf("encode: plan with %d trains", p.numTrains)
	}
	if p.words != (p.numTrains+63)/64 {
		return fmt.Errorf("encode: plan bitset stride %d words, want %d", p.words, (p.numTrains+63)/64)
	}
	steps := len(p.offsets) - 1
	if len(p.bits) != steps*p.words {
		return fmt.Errorf("encode: plan bitset holds %d words, want %d", len(p.bits), steps*p.words)
	}
	if p.offsets[0] != 0 {
		return fmt.Errorf("encode: plan offsets start at %d, want 0", p.offsets[0])
	}
	for st := 0; st < steps; st++ {
		lo, hi := p.offsets[st], p.offsets[st+1]
		if hi < lo || hi > len(p.spikes) {
			return fmt.Errorf("encode: plan offsets[%d:%d] = [%d, %d) out of range over %d spikes", st, st+2, lo, hi, len(p.spikes))
		}
		row := p.bits[st*p.words : (st+1)*p.words]
		pop := 0
		for _, w := range row {
			pop += bits.OnesCount64(w)
		}
		if pop != hi-lo {
			return fmt.Errorf("encode: plan step %d bitset holds %d spikes, CSR row %d", st, pop, hi-lo)
		}
		prev := int32(-1)
		for _, px := range p.spikes[lo:hi] {
			if px < 0 || int(px) >= p.numTrains {
				return fmt.Errorf("encode: plan step %d spike pixel %d out of range [0, %d)", st, px, p.numTrains)
			}
			if px <= prev {
				return fmt.Errorf("encode: plan step %d pixels not strictly ascending (%d after %d)", st, px, prev)
			}
			if row[px>>6]&(1<<(uint32(px)&63)) == 0 {
				return fmt.Errorf("encode: plan step %d pixel %d present in CSR row but missing from bitset", st, px)
			}
			prev = px
		}
	}
	if p.offsets[steps] != len(p.spikes) {
		return fmt.Errorf("encode: plan final offset %d does not cover %d spikes", p.offsets[steps], len(p.spikes))
	}
	return nil
}
