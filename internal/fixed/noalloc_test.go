package fixed

// AllocsPerRun gates for the //psslint:noalloc annotations on the packed
// SWAR kernels. The compiler-escape half of the ratchet lives in
// scripts/check-allocs.sh; this half pins the runtime behaviour.

import "testing"

func TestNoAllocPackedKernels(t *testing.T) {
	for _, f := range []Format{Q0p2, Q0p4, Q1p7} {
		pk, err := f.Packing()
		if err != nil {
			t.Fatal(err)
		}
		const n = 13 // straddles word boundaries for every width
		codes := make([]uint32, n)
		mid := pk.CodeOf(Weight(f.Max() / 2))
		for i := range codes {
			codes[i] = mid
		}
		words := pk.Pack(codes)
		sel := pk.NewSelect(n)
		pk.SetLane(sel, 3)
		pk.SetLane(sel, 7)
		pk.SetLane(sel, n-1)
		ceil := pk.CodeOf(Weight(f.Max()))
		floor := pk.CodeOf(0)
		cur := make([]float64, n)
		avg := testing.AllocsPerRun(100, func() {
			pk.AddSatMasked(words, sel, ceil)
			pk.SubSatMasked(words, sel, floor)
			pk.IncSat(words, 2, ceil)
			pk.DecSat(words, 5, floor)
			pk.AccumulateRange(words, 0.5, cur, 0, n)
		})
		if avg != 0 {
			t.Errorf("%s: packed kernel cycle allocates %.1f per run, want 0", f, avg)
		}
	}
}

func TestNoAllocAccumulateRows(t *testing.T) {
	rows := []int{0, 2, 2, 1}
	for _, f := range []Format{Q0p2, Q0p4, Q1p7, Q1p15} {
		pk, err := f.Packing()
		if err != nil {
			t.Fatal(err)
		}
		const n = 45 // register blocks plus a partial tail for every width
		stride := pk.WordsFor(n)
		words := make([]Word, 3*stride)
		cur := make([]float64, n)
		avg := testing.AllocsPerRun(100, func() {
			pk.AccumulateRows(words, stride, rows, 0.5, 0.75, cur, 0, n)
			pk.AccumulateRows(words, stride, rows, 0.5, 0.75, cur, 3, 7) // no full block
			pk.AccumulateRowsGo(words, stride, rows, 0.5, 0.75, cur, 0, n)
		})
		if avg != 0 {
			t.Errorf("%s: AccumulateRows allocates %.1f per run, want 0", f, avg)
		}
	}
}

func TestNoAllocAccumulateWeightRows(t *testing.T) {
	rows := []int{0, 2, 2, 1}
	const n = 45 // 16-lane blocks, 4-lane groups and a scalar tail
	g := make([]Weight, 3*n)
	cur := make([]float64, n)
	avg := testing.AllocsPerRun(100, func() {
		AccumulateWeightRows(g, n, rows, 0.5, 0.75, cur, 0, n)
		AccumulateWeightRows(g, n, rows, 0.5, 0.75, cur, 3, 6) // no full group
		AccumulateWeightRowsGo(g, n, rows, 0.5, 0.75, cur, 0, n)
	})
	if avg != 0 {
		t.Errorf("AccumulateWeightRows allocates %.1f per run, want 0", avg)
	}
}
