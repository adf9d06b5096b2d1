// Package encode converts input images into spike trains and implements
// ParallelSpikeSim's frequency-control module (paper §III-A/B, Fig 1(d)).
//
// Each pixel drives one spike train whose frequency is proportional to the
// 8-bit pixel intensity, mapped into a configurable band [MinHz, MaxHz].
// (In the paper's rendering convention ink pixels are the "darker" ones and
// carry the larger stored intensity, so ink spikes fastest.) The band is the
// frequency-control knob of §IV-C: the baseline band is 1–22 Hz with 500 ms
// per image; the high-frequency mode boosts the band to 5–78 Hz and cuts the
// presentation time to 100 ms.
//
// Every train is Poisson: each step spikes independently with probability
// rate·dt, decided by a counter-based hash of (seed, presentation, step,
// pixel), so the trains are reproducible under any goroutine layout. A
// Source materializes them as a Plan, the sparse CSR schedule the step
// core replays (plan.go, events.go).
package encode

import (
	"fmt"

	"parallelspikesim/internal/rng"
)

// Band is an input spike-train frequency range in Hz.
type Band struct {
	MinHz float64
	MaxHz float64
}

// Validate checks the band is physically meaningful.
func (b Band) Validate() error {
	if b.MinHz < 0 || b.MaxHz <= 0 || b.MaxHz < b.MinHz {
		return fmt.Errorf("encode: invalid band [%v, %v] Hz", b.MinHz, b.MaxHz)
	}
	return nil
}

// BaselineBand is the paper's deterministic-STDP operating range (§IV-C).
func BaselineBand() Band { return Band{MinHz: 1, MaxHz: 22} }

// HighFrequencyBand is the paper's boosted range for fast stochastic
// learning (§IV-C).
func HighFrequencyBand() Band { return Band{MinHz: 5, MaxHz: 78} }

// Rate maps an 8-bit pixel intensity into the band: MinHz at intensity 0,
// MaxHz at intensity 255, linear in between (Fig 1(d)).
func (b Band) Rate(intensity uint8) float64 {
	return b.MinHz + (b.MaxHz-b.MinHz)*float64(intensity)/255
}

// Rates fills dst with the per-pixel rates for an image. dst must have
// len(img) entries.
func (b Band) Rates(img []uint8, dst []float64) {
	if len(dst) != len(img) {
		panic(fmt.Sprintf("encode: Rates dst length %d, want %d", len(dst), len(img)))
	}
	for i, px := range img {
		dst[i] = b.Rate(px)
	}
}

// Source generates the spike-train array for one presented image: one
// Poisson train per pixel. Spike decisions are pure functions of (seed,
// presentation, step, pixel), so a source's plans can be built from any
// goroutine layout and replayed exactly.
type Source struct {
	rates []float64 // Hz per pixel
	seed  uint64

	// presSeed folds (seed, presentation) into one value so a spike draw
	// hashes two counters instead of three.
	presSeed uint64
	// active lists the pixels with a nonzero Poisson threshold, ascending,
	// and activeThr their thresholds uint64(p·2⁶⁴), packed: the only pixels
	// a plan build hashes. Prepare fills both for step width thrDT; a
	// negative thrDT marks them stale.
	active    []int32
	activeThr []uint64
	thrDT     float64
}

// NewSource builds a spike source for an image under the given band.
func NewSource(img []uint8, band Band, seed, presentation uint64) (*Source, error) {
	if err := band.Validate(); err != nil {
		return nil, err
	}
	if len(img) == 0 {
		return nil, fmt.Errorf("encode: empty image")
	}
	s := &Source{
		rates:    make([]float64, len(img)),
		seed:     seed,
		presSeed: rng.Hash64(seed, presentation),
		thrDT:    -1,
	}
	band.Rates(img, s.rates)
	return s, nil
}

// Rebind repoints the source at a new image and presentation counter,
// reusing the rate and active-set buffers — the allocation-free path the
// step core uses to stream many images through one Source. The new image
// must have the same pixel count the source was built with. The prepared
// active set is invalidated; the next Prepare or plan build refreshes it
// from the fresh rates.
func (s *Source) Rebind(img []uint8, band Band, presentation uint64) error {
	if err := band.Validate(); err != nil {
		return err
	}
	if len(img) != len(s.rates) {
		return fmt.Errorf("encode: rebind image has %d pixels, source built for %d", len(img), len(s.rates))
	}
	s.presSeed = rng.Hash64(s.seed, presentation)
	band.Rates(img, s.rates)
	s.thrDT = -1 // a stale active set must never match a real dt
	return nil
}

// Prepare computes, for step width dt, the active set of pixels whose
// Poisson threshold is nonzero, and their thresholds. Call it once before
// building plans from the source on several goroutines at once; a build
// on an unprepared source prepares it. Prepare must not race with a build.
func (s *Source) Prepare(dt float64) {
	if s.active == nil {
		s.active = make([]int32, 0, len(s.rates))
		s.activeThr = make([]uint64, 0, len(s.rates))
	}
	s.thrDT = dt
	s.active, s.activeThr = s.active[:0], s.activeThr[:0]
	for i, rate := range s.rates {
		if thr := poissonThreshold(rate * dt / 1000); thr != 0 {
			s.active = append(s.active, int32(i))
			s.activeThr = append(s.activeThr, thr)
		}
	}
}

// poissonThreshold maps a per-step spike probability to the 64-bit hash
// threshold realizing it.
func poissonThreshold(p float64) uint64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return ^uint64(0)
	default:
		return uint64(p * (1 << 63) * 2)
	}
}

// Control is the frequency-control module of Fig 2: it couples an input
// band with the per-image presentation time, implementing the paper's two
// phases ("frequency boost and learning time reduction").
type Control struct {
	Band     Band
	TLearnMS float64 // presentation time per image
}

// BaselineControl is the paper's baseline operating point: 1–22 Hz at
// 500 ms per image.
func BaselineControl() Control {
	return Control{Band: BaselineBand(), TLearnMS: 500}
}

// HighFrequencyControl is the paper's fast-learning operating point:
// 5–78 Hz at 100 ms per image (§IV-C).
func HighFrequencyControl() Control {
	return Control{Band: HighFrequencyBand(), TLearnMS: 100}
}

// WithBand returns a copy of the control with the whole band replaced —
// the runtime retuning knob train-while-serve exposes through
// POST /models/{name}/tune.
func (c Control) WithBand(b Band) Control {
	c.Band = b
	return c
}

// WithMaxHz returns a copy of the control with the band's upper edge moved
// to maxHz — the Fig 7(a) sweep knob.
func (c Control) WithMaxHz(maxHz float64) Control {
	c.Band.MaxHz = maxHz
	return c
}

// Validate checks the control parameters.
func (c Control) Validate() error {
	if err := c.Band.Validate(); err != nil {
		return err
	}
	if c.TLearnMS <= 0 {
		return fmt.Errorf("encode: non-positive presentation time %v ms", c.TLearnMS)
	}
	return nil
}

// SpeedupOver returns the ratio of presentation times, the "up to 3x lower
// learning time" factor of the paper's abstract when comparing baseline to
// high-frequency control.
func (c Control) SpeedupOver(other Control) float64 {
	return other.TLearnMS / c.TLearnMS
}
