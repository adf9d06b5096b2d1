package network

// Present runs every simulation step inline on the presenting goroutine;
// the executor carries only the end-of-presentation lazy flush. These tests
// pin that contract two ways: by counting executor dispatches, and by an
// AllocsPerRun gate (run by scripts/check-allocs.sh) showing that steady-
// state allocations do not grow with the number of steps.

import (
	"fmt"
	"testing"

	"parallelspikesim/internal/check"
	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/engine"
	"parallelspikesim/internal/synapse"
)

// countingExecutor wraps an executor and counts its For calls.
type countingExecutor struct {
	engine.Executor
	calls int
}

func (c *countingExecutor) For(n int, fn func(chunk, lo, hi int)) {
	c.calls++
	c.Executor.For(n, fn)
}

// TestPresentStepsDoNotDispatch pins the premise that lets dense training
// run without a worker pool: a dense network never calls its executor, in
// learning or evaluation, while a lazy one calls it exactly once per
// learning presentation that leaves deferred events to drain (one with a
// post spike, since each learning post spike records one) and never
// otherwise.
func TestPresentStepsDoNotDispatch(t *testing.T) {
	data := dataset.SynthDigits(3, 2)
	// Under a 0 Hz floor a blank image sends no input spike, so its
	// learning presentation has no post spike and leaves no event to drain.
	images := append(data.Images, make([]uint8, len(data.Images[0])))
	ctl := encode.Control{Band: encode.Band{MinHz: 0, MaxHz: 78}, TLearnMS: 100}
	for _, kind := range []synapse.RuleKind{synapse.Deterministic, synapse.Stochastic} {
		for _, mode := range []PlasticityMode{DensePlasticity, LazyPlasticity} {
			name := kind.String() + "/" + mode.String()
			pool := engine.New(2)
			exec := &countingExecutor{Executor: pool}
			net, err := New(presetConfig(t, synapse.Preset8Bit, kind, 40), WithExecutor(exec), WithPlasticity(mode))
			if err != nil {
				t.Fatal(err)
			}
			flushes, quiet := 0, 0
			for i, img := range images {
				for _, learn := range []bool{true, false} {
					exec.calls = 0
					before := net.TotalExcSpikes
					if _, err := net.Present(img, ctl, learn, nil); err != nil {
						t.Fatal(err)
					}
					flushes += exec.calls
					spiked := net.TotalExcSpikes > before
					if learn && !spiked {
						quiet++
					}
					want := 0
					if mode == LazyPlasticity && learn && spiked {
						want = 1 // the end-of-presentation flush
					}
					if exec.calls != want {
						t.Errorf("%s: image %d learn=%v made %d For calls, want %d",
							name, i, learn, exec.calls, want)
					}
				}
			}
			if net.TotalExcSpikes == 0 {
				t.Errorf("%s: no neuron fired; no post-spike update was exercised", name)
			}
			if mode == LazyPlasticity && flushes == 0 {
				t.Errorf("%s: no end flush reached the executor; the counter is not wired", name)
			}
			if quiet == 0 {
				t.Errorf("%s: every learning presentation spiked; the no-event case went untested", name)
			}
			pool.Close()
		}
	}
}

// TestNoAllocPresent requires steady-state Present allocations to be
// independent of the step count: a per-step closure or dispatch would
// double its allocations going from 100 to 200 steps. What remains is
// per presentation — the result's SpikeCounts slice, the lazy flush's
// closure, and a pool's per-For WaitGroup and panic record.
func TestNoAllocPresent(t *testing.T) {
	if check.Enabled {
		t.Skip("simcheck build: noalloc gates apply to release paths only")
	}
	img := testImage()
	for _, workers := range []int{1, 2} {
		for _, mode := range []PlasticityMode{DensePlasticity, LazyPlasticity} {
			name := fmt.Sprintf("workers=%d/%s", workers, mode)
			exec := engine.New(workers)
			net, err := New(presetConfig(t, synapse.Preset8Bit, synapse.Stochastic, 1000),
				WithExecutor(exec), WithPlasticity(mode))
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
				// Warm every scratch capacity: the inline plan, the
				// candidate buffer and the lazy event log.
				for i := 0; i < 3; i++ {
					present()
				}
				return testing.AllocsPerRun(10, present)
			}
			a100, a200 := allocs(100), allocs(200)
			t.Logf("%s: %.0f allocs per presentation at 100 steps, %.0f at 200", name, a100, a200)
			if a200 > a100 {
				t.Errorf("%s: allocations grow with the step count: %.0f at 100 steps, %.0f at 200",
					name, a100, a200)
			}
			if a100 > 8 {
				t.Errorf("%s: %.0f allocations per presentation, want at most 8", name, a100)
			}
			exec.Close()
		}
	}
}
