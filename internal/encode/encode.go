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
// Two train generators are provided:
//
//   - Poisson: each step spikes independently with probability rate·dt
//     (counter-based draws → reproducible under parallelism);
//   - Regular: evenly spaced spikes at exactly the target rate, with a
//     per-pixel deterministic phase, used for raster illustrations and
//     ablations.
package encode

import (
	"fmt"
	"math"

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

// TrainKind selects the spike-train generator.
type TrainKind int

const (
	// Poisson trains spike with per-step probability rate·dt.
	Poisson TrainKind = iota
	// Regular trains spike at exact intervals 1/rate with a per-pixel phase.
	Regular
)

// String names the generator.
func (k TrainKind) String() string {
	switch k {
	case Poisson:
		return "poisson"
	case Regular:
		return "regular"
	default:
		return fmt.Sprintf("TrainKind(%d)", int(k))
	}
}

// Source generates the spike-train array for one presented image: one train
// per pixel. Spike decisions are pure functions of (seed, presentation,
// step, pixel), so the source can be stepped from any goroutine layout and
// replayed exactly.
type Source struct {
	Kind  TrainKind
	rates []float64 // Hz per pixel
	seed  uint64
	pres  uint64 // presentation counter decorrelating successive images

	// presSeed folds (seed, pres) into one value so the per-step draw
	// hashes two counters instead of three.
	presSeed uint64
	// thresholds caches uint64(p·2⁶⁴) per pixel for the dt the source was
	// last stepped with, so the Poisson decision is one hash + compare.
	thresholds []uint64
	thrDT      float64
	// active lists the pixels with a nonzero threshold, ascending, and
	// activeThr their thresholds, packed: the only pixels a Poisson plan
	// build hashes. Prepare fills both beside thresholds.
	active    []int32
	activeThr []uint64
}

// NewSource builds a spike source for an image under the given band.
func NewSource(img []uint8, band Band, kind TrainKind, seed, presentation uint64) (*Source, error) {
	if err := band.Validate(); err != nil {
		return nil, err
	}
	if len(img) == 0 {
		return nil, fmt.Errorf("encode: empty image")
	}
	s := &Source{
		Kind:     kind,
		rates:    make([]float64, len(img)),
		seed:     seed,
		pres:     presentation,
		presSeed: rng.Hash64(seed, presentation),
	}
	band.Rates(img, s.rates)
	return s, nil
}

// Rebind repoints the source at a new image and presentation counter,
// reusing the rate and threshold buffers — the allocation-free path the
// frozen-weight inference engine uses to stream many images through one
// Source per worker. The new image must have the same pixel count the
// source was built with. Any previously prepared thresholds are
// invalidated; call Prepare again (or let StepRange fall back to on-the-fly
// threshold computation, which reads the fresh rates either way).
func (s *Source) Rebind(img []uint8, band Band, presentation uint64) error {
	if err := band.Validate(); err != nil {
		return err
	}
	if len(img) != len(s.rates) {
		return fmt.Errorf("encode: rebind image has %d pixels, source built for %d", len(img), len(s.rates))
	}
	s.pres = presentation
	s.presSeed = rng.Hash64(s.seed, presentation)
	band.Rates(img, s.rates)
	s.thrDT = -1 // stale thresholds must never match a real dt
	return nil
}

// Prepare precomputes the per-pixel Poisson thresholds for step width dt,
// and the active set of pixels whose threshold is nonzero.
// Call it once before stepping the source from multiple goroutines;
// unprepared sources compute the same decisions on the fly. Prepare must
// not race with Step/StepRange.
func (s *Source) Prepare(dt float64) {
	if s.thresholds == nil {
		s.thresholds = make([]uint64, len(s.rates))
		s.active = make([]int32, 0, len(s.rates))
		s.activeThr = make([]uint64, 0, len(s.rates))
	}
	s.thrDT = dt
	s.active, s.activeThr = s.active[:0], s.activeThr[:0]
	for i, rate := range s.rates {
		thr := poissonThreshold(rate * dt / 1000)
		s.thresholds[i] = thr
		if thr != 0 {
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

// Len returns the number of spike trains (pixels).
func (s *Source) Len() int { return len(s.rates) }

// Rate returns the target rate of train i in Hz.
func (s *Source) Rate(i int) float64 { return s.rates[i] }

// Step appends the indices of trains that spike during simulation step
// `step` of width dt ms, and returns the extended slice. Steps are
// independent of call order.
//
//psslint:noalloc
func (s *Source) Step(step uint64, dt float64, spikes []int) []int {
	return s.StepRange(step, dt, 0, len(s.rates), spikes)
}

// StepRange is Step restricted to trains [lo, hi); the parallel engine uses
// it to partition spike generation by pixel. Splitting a step across ranges
// yields exactly the spikes of a full Step, in the same (ascending) order.
//
//psslint:noalloc
func (s *Source) StepRange(step uint64, dt float64, lo, hi int, spikes []int) []int {
	switch s.Kind {
	case Poisson:
		if s.thresholds != nil && s.thrDT == dt {
			for i := lo; i < hi; i++ {
				thr := s.thresholds[i]
				if thr != 0 && rng.Hash64(s.presSeed, step, uint64(i)) < thr {
					spikes = append(spikes, i)
				}
			}
			break
		}
		for i := lo; i < hi; i++ {
			thr := poissonThreshold(s.rates[i] * dt / 1000)
			if thr != 0 && rng.Hash64(s.presSeed, step, uint64(i)) < thr {
				spikes = append(spikes, i)
			}
		}
	case Regular:
		for i := lo; i < hi; i++ {
			rate := s.rates[i]
			if rate <= 0 {
				continue
			}
			period := 1000 / rate // ms
			// Deterministic per-pixel phase in [0, period).
			phase := rng.Uniform(s.seed, s.pres, uint64(i)) * period
			tPrev := float64(step) * dt
			tNow := tPrev + dt
			// Spike if a multiple of the period (offset by phase) falls in
			// (tPrev, tNow].
			kPrev := math.Floor((tPrev - phase) / period)
			kNow := math.Floor((tNow - phase) / period)
			if kNow > kPrev && tNow > phase {
				spikes = append(spikes, i)
			}
		}
	}
	return spikes
}

// ExpectedSpikes returns the expected total spike count over a presentation
// of durationMS, summed across all trains.
func (s *Source) ExpectedSpikes(durationMS float64) float64 {
	sum := 0.0
	for _, r := range s.rates {
		sum += r * durationMS / 1000
	}
	return sum
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
