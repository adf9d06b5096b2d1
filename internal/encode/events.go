package encode

import (
	"math"

	"parallelspikesim/internal/rng"
)

// Event-driven sparse spike generation (DESIGN.md §16).
//
// Source.Step decides every (step, pixel) pair independently, so a dense
// presentation scan costs steps × NumInputs hash evaluations even though
// only a few tens of pixels spike per step. The builders below produce the
// exact same spike sets while touching far less work:
//
//   - Poisson trains are iid per (step, pixel) by construction — skipping a
//     step would change which hash draws exist, so no skip-ahead can be
//     bit-identical. Instead the builder exploits that Hash64(presSeed,
//     step, px) shares its (presSeed, step) prefix across all pixels of a
//     step: the prefix is folded once per step and each pixel costs two
//     inlined SplitMix64 rounds instead of a three-round variadic Hash64
//     call. Pixels whose threshold is zero (rate·dt == 0, e.g. background
//     pixels under a MinHz=0 band) are excluded from the active set when
//     the source is Prepared and never hashed at all.
//
//   - Regular trains spike at arithmetic times phase + k·period, so true
//     skip-ahead is exact: the builder jumps from one spike to the
//     neighborhood of the next period boundary and re-evaluates Source.Step's
//     float predicate verbatim only there. The jump lands two steps early
//     and the boundary-adjacent steps are always evaluated exactly, so ulp
//     discrepancies between fl(step·dt)+dt and fl((step+1)·dt) — which can
//     make the dense predicate double-fire or skip a boundary — are decided
//     by the same arithmetic the dense scan uses, never by the estimate.

// buildPoisson fills p with the Poisson spikes of steps consecutive steps
// starting at p.startStep, bit-identical to Source.Step at each step. The
// source must be Prepared for p.dt; it is only read, so several plans may
// be built from it at once.
func (s *Source) buildPoisson(p *Plan, steps int) {
	hImg := rng.HashInit(s.presSeed)
	for st := 0; st < steps; st++ {
		// One fold of the shared (presSeed, step) prefix serves every pixel.
		hStep := rng.HashMix(hImg, p.startStep+uint64(st))
		base := len(p.spikes)
		thrs := s.activeThr[:len(s.active)]
		for k, px := range s.active {
			if rng.HashFin(rng.HashMix(hStep, uint64(px))) < thrs[k] {
				p.spikes = append(p.spikes, px)
			}
		}
		row := p.bits[st*p.words : (st+1)*p.words]
		for _, px := range p.spikes[base:] {
			row[px>>6] |= 1 << (uint32(px) & 63)
		}
		p.offsets[st+1] = len(p.spikes)
	}
}

// buildRegular fills p with the Regular-train spikes of steps consecutive
// steps starting at p.startStep, bit-identical to Source.Step at each step.
// Spike steps are found pixel-major with per-pixel skip-ahead, staged as
// (step, pixel) events, then counting-sorted into the CSR layout; the sort
// is stable, so each step's pixels come out ascending exactly as the dense
// pixel scan emits them.
func (s *Source) buildRegular(p *Plan, steps int) {
	p.ev = p.ev[:0]
	for px, rate := range s.rates {
		if rate <= 0 {
			continue
		}
		period := 1000 / rate // ms
		phase := rng.Uniform(s.seed, s.pres, uint64(px)) * period
		p.ev = appendRegularSteps(p.ev, uint64(px), p.startStep, period, phase, steps, p.dt)
	}
	// Counting sort by step. Counts go to offsets[st+1], the prefix sum
	// turns offsets[st] into step st's write cursor, and a final shift
	// restores the CSR convention offsets[st+1] = end of step st.
	for _, e := range p.ev {
		p.offsets[int(e>>32)+1]++
	}
	for st := 1; st <= steps; st++ {
		p.offsets[st] += p.offsets[st-1]
	}
	total := len(p.ev)
	if cap(p.spikes) < total {
		p.spikes = make([]int32, total)
	} else {
		p.spikes = p.spikes[:total]
	}
	for _, e := range p.ev {
		st := int(e >> 32)
		px := int32(uint32(e))
		p.spikes[p.offsets[st]] = px
		p.offsets[st]++
		p.bits[st*p.words+int(px)>>6] |= 1 << (uint32(px) & 63)
	}
	for st := steps; st > 0; st-- {
		p.offsets[st] = p.offsets[st-1]
	}
	p.offsets[0] = 0
}

// appendRegularSteps appends (localStep<<32 | px) for every presentation
// step on which the regular train (period, phase) spikes, reproducing
// Source.StepRange's predicate exactly. Between spikes it jumps to two
// steps before the next period boundary instead of walking every step; the
// skipped steps provably sit strictly inside one period interval, where the
// dense predicate cannot fire, and every boundary-adjacent step is decided
// by the verbatim dense arithmetic.
func appendRegularSteps(ev []uint64, px, start uint64, period, phase float64, steps int, dt float64) []uint64 {
	for i := 0; i < steps; {
		// Verbatim Source.StepRange Regular predicate at local step i.
		tPrev := float64(start+uint64(i)) * dt
		tNow := tPrev + dt
		kPrev := math.Floor((tPrev - phase) / period)
		kNow := math.Floor((tNow - phase) / period)
		if kNow > kPrev && tNow > phase {
			ev = append(ev, uint64(i)<<32|px)
			i++ // the step after a crossing is boundary-adjacent: evaluate it exactly
			continue
		}
		if tNow-(phase+kNow*period) < 1e-9*period {
			// tNow sits essentially on boundary kNow; the next step's tPrev
			// may recompute on either side of it, so decide it exactly.
			i++
			continue
		}
		// Next possible crossing is boundary kNow+1 at tTarget. The first
		// step whose tNow reaches it is ≈ tTarget/dt − 1 − start; land two
		// steps earlier and let the exact predicate take over.
		tTarget := phase + (kNow+1)*period
		est := math.Floor(tTarget/dt) - 1 - float64(start) - 2
		if est >= float64(steps) {
			break // no further boundary inside the window
		}
		if j := int(est); j > i {
			i = j
		} else {
			i++
		}
	}
	return ev
}
