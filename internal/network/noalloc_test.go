package network

// Present runs every simulation step inline on the presenting goroutine.
// TestNoAllocPresent pins that with an AllocsPerRun gate (run by
// scripts/check-allocs.sh) showing that steady-state allocations do not
// grow with the number of steps.

import (
	"testing"

	"parallelspikesim/internal/check"
	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/synapse"
)

// TestNoAllocPresent requires steady-state Present allocations to be
// independent of the step count: a per-step closure or dispatch would
// double its allocations going from 100 to 200 steps. What remains is
// per presentation, such as the result's SpikeCounts slice.
func TestNoAllocPresent(t *testing.T) {
	if check.Enabled {
		t.Skip("simcheck build: noalloc gates apply to release paths only")
	}
	img := testImage()
	net, err := New(presetConfig(t, synapse.Preset8Bit, synapse.Stochastic, 1000))
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(ms float64) float64 {
		ctl := encode.Control{Band: encode.HighFrequencyBand(), TLearnMS: ms}
		present := func() {
			if _, err := net.Present(img, ctl, true, nil); err != nil {
				t.Fatal(err)
			}
		}
		// Warm every scratch capacity: the inline plan and the candidate
		// buffer.
		for i := 0; i < 3; i++ {
			present()
		}
		return testing.AllocsPerRun(10, present)
	}
	a100, a200 := allocs(100), allocs(200)
	t.Logf("%.0f allocs per presentation at 100 steps, %.0f at 200", a100, a200)
	if a200 > a100 {
		t.Errorf("allocations grow with the step count: %.0f at 100 steps, %.0f at 200", a100, a200)
	}
	if a100 > 8 {
		t.Errorf("%.0f allocations per presentation, want at most 8", a100)
	}
}
