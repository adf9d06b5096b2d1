package encode

import "parallelspikesim/internal/rng"

// Event-driven sparse spike generation (DESIGN.md §16).
//
// A Poisson decision is Hash64(presSeed, step, px) < threshold(px), so a
// dense presentation scan costs steps × NumInputs keyed hashes even though
// only a few tens of pixels spike per step. Poisson trains are iid per
// (step, pixel) by construction — skipping a step would change which hash
// draws exist, so no skip-ahead can be bit-identical. Instead the builder
// exploits that Hash64(presSeed, step, px) shares its (presSeed, step)
// prefix across all pixels of a step: the prefix is folded once per step
// and each pixel costs two inlined SplitMix64 rounds instead of a
// three-round variadic Hash64 call. Pixels whose threshold is zero
// (rate·dt == 0, e.g. background pixels under a MinHz=0 band) are excluded
// from the active set when the source is Prepared and never hashed at all.
// The encode tests hold the builder to the dense scan bit for bit.

// buildPoisson fills p with the Poisson spikes of steps consecutive steps
// starting at p.startStep. The source must be Prepared for the plan's dt;
// it is only read, so several plans may be built from it at once.
func (s *Source) buildPoisson(p *Plan, steps int) {
	hImg := rng.HashInit(s.presSeed)
	for st := 0; st < steps; st++ {
		// One fold of the shared (presSeed, step) prefix serves every pixel.
		hStep := rng.HashMix(hImg, p.startStep+uint64(st))
		thrs := s.activeThr[:len(s.active)]
		for k, px := range s.active {
			if rng.HashFin(rng.HashMix(hStep, uint64(px))) < thrs[k] {
				p.spikes = append(p.spikes, px)
			}
		}
		p.offsets[st+1] = len(p.spikes)
	}
}
