package encode

// Fuzz wall for the sparse event-stream plan (DESIGN.md §16).
//
// FuzzPlanFromEvents drives the external-ingest constructor with hostile
// CSR payloads — non-monotone or out-of-range offsets, negative and
// out-of-range pixel indices, truncated event streams — and checks the
// reject/accept contract: it must never panic, and any plan it accepts
// must pass Validate and serve in-range per-step lookups without panicking.
//
// FuzzSparseMatchesDense is the differential fuzzer: for arbitrary
// (image, band, kind, dt, seed, presentation, start step) it requires the
// sparse builder to reproduce the dense Source.Step reference bit for bit.
//
// FuzzChunkedPlanMatchesWhole cuts a presentation at fuzzer-chosen split
// points and requires the plans of the pieces, each keyed at its own first
// global step, to replay exactly the steps of one whole plan — the
// property network.Core's chunked build rests on.

import (
	"slices"
	"testing"
)

func FuzzPlanFromEvents(f *testing.F) {
	// Well-formed: 3 trains, 2 steps, spikes {0,2} then {1}.
	f.Add(uint64(0), int64(3), int64(2), []byte{0, 2, 3}, []byte{0, 2, 1}, 1.0)
	// Hostile offsets: non-monotone, negative-looking (wraparound), and
	// offsets pointing past the spike payload.
	f.Add(uint64(1), int64(3), int64(2), []byte{2, 0, 3}, []byte{0, 2, 1}, 1.0)
	f.Add(uint64(1), int64(3), int64(2), []byte{0, 200, 3}, []byte{0, 2, 1}, 1.0)
	// Truncated event stream: offsets promise more spikes than delivered.
	f.Add(uint64(0), int64(3), int64(2), []byte{0, 2, 5}, []byte{0, 2}, 0.5)
	// Out-of-range pixels: index >= numTrains.
	f.Add(uint64(0), int64(2), int64(1), []byte{0, 2}, []byte{0, 7}, 1.0)
	// Duplicate / descending pixels within a step.
	f.Add(uint64(0), int64(4), int64(1), []byte{0, 2}, []byte{2, 2}, 1.0)
	f.Add(uint64(0), int64(4), int64(1), []byte{0, 2}, []byte{3, 1}, 1.0)
	// Degenerate shapes: zero trains, zero steps, huge step count.
	f.Add(uint64(0), int64(0), int64(1), []byte{0, 0}, []byte{}, 1.0)
	f.Add(uint64(0), int64(3), int64(0), []byte{0}, []byte{}, 1.0)
	f.Add(uint64(0), int64(3), int64(120), []byte{0}, []byte{}, 1.0)

	f.Fuzz(func(t *testing.T, start uint64, numTrains, steps int64, offB, spkB []byte, dt float64) {
		if numTrains < -8 || numTrains > 256 || steps < -8 || steps > 256 {
			return
		}
		// Decode the raw byte streams into CSR arrays verbatim — no
		// sanitizing. Signed spreading lets the fuzzer reach negative
		// offsets and pixels, which the constructor must reject.
		offsets := make([]int, len(offB))
		for i, b := range offB {
			offsets[i] = int(int8(b)) * (i%3 + 1)
		}
		spikes := make([]int32, len(spkB))
		for i, b := range spkB {
			spikes[i] = int32(int8(b))
		}
		p, err := PlanFromEvents(start, dt, int(numTrains), offsets, spikes)
		if err != nil {
			return
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("accepted plan fails validation: %v", verr)
		}
		// Every in-range lookup on an accepted plan must be servable.
		var dst []int
		for st := 0; st < p.Steps(); st++ {
			dst = p.Step(st, dst[:0])
			view := p.StepView(st)
			if len(dst) != len(view) {
				t.Fatalf("step %d: Step len %d != StepView len %d", st, len(dst), len(view))
			}
			for _, px := range view {
				if !p.Contains(st, int(px)) {
					t.Fatalf("step %d: CSR pixel %d missing from bitset", st, px)
				}
			}
			_ = p.StepBits(st)
		}
	})
}

func FuzzSparseMatchesDense(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint64(0), byte(0), 1.0, 22.0, byte(1), byte(40), []byte{0, 128, 255})
	f.Add(uint64(7), uint64(3), uint64(12345), byte(1), 5.0, 78.0, byte(0), byte(60), []byte{255, 1, 64, 200})
	// Band edges: silent band floor, degenerate 0-width band, period < dt.
	f.Add(uint64(9), uint64(1), uint64(1)<<32, byte(0), 0.0, 78.0, byte(2), byte(30), []byte{0, 255})
	f.Add(uint64(2), uint64(5), uint64(99), byte(1), 40.0, 40.0, byte(1), byte(50), []byte{128, 128, 128})
	f.Add(uint64(4), uint64(0), uint64(0), byte(1), 900.0, 2000.0, byte(2), byte(25), []byte{10, 250})

	dts := []float64{0.1, 0.5, 1, 2}
	f.Fuzz(func(t *testing.T, seed, pres, start uint64, kindB byte, lo, hi float64, dtSel, stepsB byte, img []byte) {
		if len(img) == 0 || len(img) > 96 {
			return
		}
		kind := Poisson
		if kindB&1 == 1 {
			kind = Regular
		}
		// Clamp the band into a sane range but keep the fuzzer free to hit
		// the 0 Hz floor, zero-width bands and sub-dt periods.
		if lo != lo || hi != hi { // NaN
			return
		}
		if lo < 0 {
			lo = -lo
		}
		if hi < 0 {
			hi = -hi
		}
		if hi < lo {
			lo, hi = hi, lo
		}
		if hi > 2000 {
			return
		}
		band := Band{MinHz: lo, MaxHz: hi}
		if band.Validate() != nil {
			return
		}
		dt := dts[int(dtSel)%len(dts)]
		steps := 1 + int(stepsB)%80
		pixels := make([]uint8, len(img))
		copy(pixels, img)
		s, err := NewSource(pixels, band, kind, seed, pres)
		if err != nil {
			return
		}
		p := s.BuildPlan(start, dt, steps)
		if verr := p.Validate(); verr != nil {
			t.Fatalf("sparse plan fails validation: %v", verr)
		}
		var buf []int
		for st := 0; st < steps; st++ {
			want := s.Step(start+uint64(st), dt, nil)
			buf = p.Step(st, buf[:0])
			if len(buf) != len(want) {
				t.Fatalf("step %d: sparse %v != dense %v (kind=%v band=[%v,%v] dt=%v)",
					st, buf, want, kind, lo, hi, dt)
			}
			for i := range want {
				if buf[i] != want[i] {
					t.Fatalf("step %d idx %d: sparse %d != dense %d (kind=%v band=[%v,%v] dt=%v)",
						st, i, buf[i], want[i], kind, lo, hi, dt)
				}
			}
		}
	})
}

func FuzzChunkedPlanMatchesWhole(f *testing.F) {
	f.Add(uint64(1), uint64(0), byte(0), byte(2), byte(100), []byte{10, 10, 10}, []byte{0, 128, 255})
	f.Add(uint64(3), uint64(1)<<32-7, byte(1), byte(1), byte(101), []byte{3, 1, 40}, []byte{255, 1, 64, 200})
	f.Add(uint64(5), uint64(12345), byte(0), byte(0), byte(7), []byte{1}, []byte{200, 30})
	f.Add(uint64(8), uint64(1)<<32+2, byte(1), byte(3), byte(250), []byte{0, 9, 90}, []byte{90, 180, 255})

	bands := []Band{BaselineBand(), HighFrequencyBand(), {MinHz: 0, MaxHz: 78}, {MinHz: 2.56, MaxHz: 56.32}}
	dts := []float64{0.1, 0.5, 1, 2}
	f.Fuzz(func(t *testing.T, seed, start uint64, kindB, sel, stepsB byte, cuts, img []byte) {
		if len(img) == 0 || len(img) > 96 || len(cuts) > 64 {
			return
		}
		kind := Poisson
		if kindB&1 == 1 {
			kind = Regular
		}
		band := bands[int(sel)%len(bands)]
		dt := dts[int(sel>>2)%len(dts)]
		steps := 1 + int(stepsB)
		pixels := slices.Clone(img)
		s, err := NewSource(pixels, band, kind, seed, start)
		if err != nil {
			return
		}
		whole := s.BuildPlan(start, dt, steps)
		// One recycled piece plan, so storage left by a longer piece must
		// leave no residue in a shorter one.
		var piece *Plan
		lo := 0
		for i := 0; lo < steps; i++ {
			n := steps - lo
			if i < len(cuts) && cuts[i] > 0 && int(cuts[i]) < n {
				n = int(cuts[i])
			}
			piece = s.BuildPlanInto(piece, start+uint64(lo), dt, n)
			if err := piece.Validate(); err != nil {
				t.Fatalf("piece [%d, %d) fails validation: %v", lo, lo+n, err)
			}
			for st := 0; st < n; st++ {
				if got, want := piece.StepView(st), whole.StepView(lo+st); !slices.Equal(got, want) {
					t.Fatalf("step %d (piece [%d, %d)): piece %v, whole %v (kind=%v band=%v dt=%v start=%d)",
						lo+st, lo, lo+n, got, want, kind, band, dt, start)
				}
			}
			lo += n
		}
	})
}
