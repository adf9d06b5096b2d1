package encode

import (
	"errors"
	"fmt"
)

// Plan is a fully materialized spike schedule for one presentation: every
// (step, pixel) spike of a Source over a fixed step count, in CSR layout.
// Because every Source decision is a pure function of (seed, presentation,
// global step, pixel), a plan built ahead of time — possibly on another
// goroutine — replays bit-identically to any other build of the same steps,
// and the plan of steps [lo, hi) keyed at startStep+lo holds exactly those
// steps of the plan keyed at startStep: network.Core builds a presentation
// in such chunks.
//
// A plan is immutable after BuildPlan/BuildPlanInto and safe for concurrent
// reads. BuildPlanInto may recycle a previously built plan's buffers, so a
// recycled plan must not be read concurrently with its rebuild.
type Plan struct {
	startStep uint64 // global step of the plan's first step
	numTrains int    // pixel count the plan was built for

	offsets []int   // per-step prefix offsets into spikes; len = steps+1
	spikes  []int32 // spiking pixels, ascending within each step
}

// BuildPlan materializes the source's spikes for `steps` steps of width dt
// ms starting at global step startStep. The network binds a presentation's
// source with presentation == its first step, and builds each chunk of it
// from that source with startStep at the chunk's first step.
func (s *Source) BuildPlan(startStep uint64, dt float64, steps int) *Plan {
	return s.BuildPlanInto(nil, startStep, dt, steps)
}

// BuildPlanInto is BuildPlan reusing the buffers of a previously built plan
// (nil allocates a fresh one): after the first build of a given shape,
// rebuilding is allocation-free. It runs the event-driven generator (see
// events.go), which costs two hash rounds per (step, active pixel) rather
// than a full keyed hash per (step, pixel). A source not yet Prepared for
// dt is Prepared here, which writes it: callers that build from one source
// on several goroutines at once must Prepare it for dt first, after which
// concurrent builds only read it. No build may race with Prepare or Rebind.
func (s *Source) BuildPlanInto(p *Plan, startStep uint64, dt float64, steps int) *Plan {
	if p == nil {
		p = &Plan{}
	}
	p.startStep = startStep
	p.numTrains = len(s.rates)
	if cap(p.offsets) < steps+1 {
		p.offsets = make([]int, steps+1)
	}
	p.offsets = p.offsets[:steps+1]
	p.offsets[0] = 0
	p.spikes = p.spikes[:0]
	if s.thrDT != dt {
		s.Prepare(dt)
	}
	s.buildPoisson(p, steps)
	return p
}

// Steps returns the number of simulation steps the plan covers.
func (p *Plan) Steps() int { return len(p.offsets) - 1 }

// Step appends the pixel indices spiking on presentation-relative step s
// (ascending) and returns the extended slice.
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

// Validate checks the plan's structural invariants: monotone offsets rooted
// at 0 and covering the spike payload exactly, and pixels in range and
// strictly ascending within each step. Simcheck builds assert it on every
// chunk.
func (p *Plan) Validate() error {
	if len(p.offsets) == 0 {
		return errors.New("encode: plan has no step offsets")
	}
	if p.numTrains <= 0 {
		return fmt.Errorf("encode: plan with %d trains", p.numTrains)
	}
	if p.offsets[0] != 0 {
		return fmt.Errorf("encode: plan offsets start at %d, want 0", p.offsets[0])
	}
	steps := len(p.offsets) - 1
	for st := 0; st < steps; st++ {
		lo, hi := p.offsets[st], p.offsets[st+1]
		if hi < lo || hi > len(p.spikes) {
			return fmt.Errorf("encode: plan offsets[%d:%d] = [%d, %d) out of range over %d spikes", st, st+2, lo, hi, len(p.spikes))
		}
		prev := int32(-1)
		for _, px := range p.spikes[lo:hi] {
			if px < 0 || int(px) >= p.numTrains {
				return fmt.Errorf("encode: plan step %d spike pixel %d out of range [0, %d)", st, px, p.numTrains)
			}
			if px <= prev {
				return fmt.Errorf("encode: plan step %d pixels not strictly ascending (%d after %d)", st, px, prev)
			}
			prev = px
		}
	}
	if p.offsets[steps] != len(p.spikes) {
		return fmt.Errorf("encode: plan final offset %d does not cover %d spikes", p.offsets[steps], len(p.spikes))
	}
	return nil
}
