package encode

// Fuzz wall for the sparse event-stream plan (DESIGN.md §16).
//
// FuzzSparseMatchesDense is the differential fuzzer: for arbitrary
// (image, band, dt, seed, presentation, start step) it requires the
// sparse builder to reproduce the denseStep oracle bit for bit.
//
// FuzzChunkedPlanMatchesWhole cuts a presentation at fuzzer-chosen split
// points and requires the plans of the pieces, each keyed at its own first
// global step, to replay exactly the steps of one whole plan — the
// property network.Core's chunked build rests on.

import (
	"slices"
	"testing"
)

func FuzzSparseMatchesDense(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint64(0), 1.0, 22.0, byte(1), byte(40), []byte{0, 128, 255})
	f.Add(uint64(7), uint64(3), uint64(12345), 5.0, 78.0, byte(0), byte(60), []byte{255, 1, 64, 200})
	// Band edges: silent band floor, degenerate 0-width band, rate·dt ≥ 1.
	f.Add(uint64(9), uint64(1), uint64(1)<<32, 0.0, 78.0, byte(2), byte(30), []byte{0, 255})
	f.Add(uint64(2), uint64(5), uint64(99), 40.0, 40.0, byte(1), byte(50), []byte{128, 128, 128})
	f.Add(uint64(4), uint64(0), uint64(0), 900.0, 2000.0, byte(2), byte(25), []byte{10, 250})

	dts := []float64{0.1, 0.5, 1, 2}
	f.Fuzz(func(t *testing.T, seed, pres, start uint64, lo, hi float64, dtSel, stepsB byte, img []byte) {
		if len(img) == 0 || len(img) > 96 {
			return
		}
		// Clamp the band into a sane range but keep the fuzzer free to hit
		// the 0 Hz floor, zero-width bands and saturating rates.
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
		s, err := NewSource(pixels, band, seed, pres)
		if err != nil {
			return
		}
		p := s.BuildPlan(start, dt, steps)
		if verr := p.Validate(); verr != nil {
			t.Fatalf("sparse plan fails validation: %v", verr)
		}
		var buf []int
		for st := 0; st < steps; st++ {
			want := denseStep(s, start+uint64(st), dt, nil)
			buf = p.Step(st, buf[:0])
			if len(buf) != len(want) {
				t.Fatalf("step %d: sparse %v != dense %v (band=[%v,%v] dt=%v)",
					st, buf, want, lo, hi, dt)
			}
			for i := range want {
				if buf[i] != want[i] {
					t.Fatalf("step %d idx %d: sparse %d != dense %d (band=[%v,%v] dt=%v)",
						st, i, buf[i], want[i], lo, hi, dt)
				}
			}
		}
	})
}

func FuzzChunkedPlanMatchesWhole(f *testing.F) {
	f.Add(uint64(1), uint64(0), byte(2), byte(100), []byte{10, 10, 10}, []byte{0, 128, 255})
	f.Add(uint64(3), uint64(1)<<32-7, byte(1), byte(101), []byte{3, 1, 40}, []byte{255, 1, 64, 200})
	f.Add(uint64(5), uint64(12345), byte(0), byte(7), []byte{1}, []byte{200, 30})
	f.Add(uint64(8), uint64(1)<<32+2, byte(3), byte(250), []byte{0, 9, 90}, []byte{90, 180, 255})

	bands := []Band{BaselineBand(), HighFrequencyBand(), {MinHz: 0, MaxHz: 78}, {MinHz: 2.56, MaxHz: 56.32}}
	dts := []float64{0.1, 0.5, 1, 2}
	f.Fuzz(func(t *testing.T, seed, start uint64, sel, stepsB byte, cuts, img []byte) {
		if len(img) == 0 || len(img) > 96 || len(cuts) > 64 {
			return
		}
		band := bands[int(sel)%len(bands)]
		dt := dts[int(sel>>2)%len(dts)]
		steps := 1 + int(stepsB)
		pixels := slices.Clone(img)
		s, err := NewSource(pixels, band, seed, start)
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
					t.Fatalf("step %d (piece [%d, %d)): piece %v, whole %v (band=%v dt=%v start=%d)",
						lo+st, lo, lo+n, got, want, band, dt, start)
				}
			}
			lo += n
		}
	})
}
