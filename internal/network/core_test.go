package network

import (
	"fmt"
	"slices"
	"testing"

	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/obs"
	"parallelspikesim/internal/synapse"
)

// chunkedSteps reads every step of the presentation c last encoded through
// the chunks run consumes. With ahead set it first waits for the helper,
// so the helper built every chunk; otherwise it claims chunks in run's
// order while the helper races it. Either way it waits for the helper
// before it returns, as run does.
func chunkedSteps(c *Core, ahead bool) [][]int32 {
	if ahead {
		c.helper.Wait()
	}
	out := make([][]int32, c.steps)
	for s := range out {
		out[s] = slices.Clone(c.chunk(s / chunkSteps).StepView(s % chunkSteps))
	}
	c.helper.Wait()
	return out
}

// TestChunkedEncodeMatchesWholePlan is the wall under the chunked build:
// whichever goroutine builds a chunk, every step the core replays must be
// the step of one whole BuildPlanInto over the presentation — for the
// paper's two operating points and a boosted band, step counts that leave
// a short last chunk or fit in one, and start steps whose chunks straddle
// 2³². One core serves every case, so chunk storage recycled from a longer
// presentation is exercised too.
func TestChunkedEncodeMatchesWholePlan(t *testing.T) {
	img := dataset.SynthDigits(1, 3).Images[0]
	base := encode.BaselineBand()
	boosted := encode.Band{MinHz: base.MinHz * 1.6 * 1.6, MaxHz: base.MaxHz * 1.6 * 1.6}
	ctls := []encode.Control{
		encode.HighFrequencyControl(),
		encode.BaselineControl(),
		{Band: boosted, TLearnMS: 500},
		{Band: encode.HighFrequencyBand(), TLearnMS: 7},
		{Band: encode.HighFrequencyBand(), TLearnMS: 95},
		{Band: encode.HighFrequencyBand(), TLearnMS: 101},
	}
	starts := []uint64{0, 1<<32 - 45, 1<<32 + 3}
	cfg := testConfig(t, synapse.Stochastic, 10)
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := net.core
	for _, ctl := range ctls {
		for _, start := range starts {
			for _, ahead := range []bool{false, true} {
				label := fmt.Sprintf("[%v,%v]Hz/%vms/start=%d/ahead=%v",
					ctl.Band.MinHz, ctl.Band.MaxHz, ctl.TLearnMS, start, ahead)
				steps, err := c.Encode(img, ctl, start)
				if err != nil {
					t.Fatal(err)
				}
				got := chunkedSteps(c, ahead)
				src, err := encode.NewSource(img, ctl.Band, c.srcSeed, start)
				if err != nil {
					t.Fatal(err)
				}
				whole := src.BuildPlanInto(nil, start, cfg.DTms, steps)
				if len(got) != whole.Steps() {
					t.Fatalf("%s: chunked core holds %d steps, whole plan %d", label, len(got), whole.Steps())
				}
				spikes := 0
				for s, view := range got {
					if want := whole.StepView(s); !slices.Equal(view, want) {
						t.Fatalf("%s: step %d: chunked %v, whole plan %v", label, s, view, want)
					}
					spikes += len(view)
				}
				if spikes == 0 {
					t.Fatalf("%s: no input spikes; the comparison is vacuous", label)
				}
			}
		}
	}
}

// TestEncodeHelperBuildsAhead pins the claiming protocol: a helper left to
// run alone builds every chunk, counted by its counter, and run then builds
// none; a one-chunk presentation spawns no helper and is built inline.
func TestEncodeHelperBuildsAhead(t *testing.T) {
	net, err := New(testConfig(t, synapse.Stochastic, 10))
	if err != nil {
		t.Fatal(err)
	}
	c := net.core
	reg := obs.NewRegistry()
	c.obsAhead = reg.Counter("network_encode_chunks_ahead_total")
	img := testImage()

	steps, err := c.Encode(img, encode.HighFrequencyControl(), 0)
	if err != nil {
		t.Fatal(err)
	}
	chunks := uint64((steps + chunkSteps - 1) / chunkSteps)
	chunkedSteps(c, true)
	if got := c.obsAhead.Value(); got != chunks {
		t.Fatalf("helper built %d chunks alone, want all %d", got, chunks)
	}
	if got := c.next.Load(); got < int64(chunks) {
		t.Fatalf("next = %d after every chunk was read, want at least %d", got, chunks)
	}

	if _, err := c.Encode(img, encode.Control{Band: encode.HighFrequencyBand(), TLearnMS: chunkSteps}, uint64(steps)); err != nil {
		t.Fatal(err)
	}
	chunkedSteps(c, true)
	if got := c.obsAhead.Value(); got != chunks {
		t.Fatalf("a one-chunk presentation moved the helper counter to %d, want %d", got, chunks)
	}
	if got := c.next.Load(); got != 1 {
		t.Fatalf("next = %d after a one-chunk presentation, want 1 (built inline)", got)
	}
}
