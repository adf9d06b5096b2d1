package golden

import (
	"os"
	"runtime"
	"testing"

	"parallelspikesim/internal/engine"
	"parallelspikesim/internal/fixed"
	"parallelspikesim/internal/infer"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/synapse"
)

func committed(t *testing.T, c Case) Trace {
	t.Helper()
	tr, err := ReadTrace(TracePath("testdata", c))
	if err != nil {
		t.Fatalf("missing golden trace (run `go generate ./internal/golden`): %v", err)
	}
	return tr
}

func assertTrace(t *testing.T, got, want Trace) {
	t.Helper()
	if got.InputSpikes != want.InputSpikes || got.ExcSpikes != want.ExcSpikes {
		t.Fatalf("spike totals drifted: got %d/%d, golden %d/%d",
			got.InputSpikes, got.ExcSpikes, want.InputSpikes, want.ExcSpikes)
	}
	if len(got.Winners) != len(want.Winners) {
		t.Fatalf("winner count drifted: got %d, golden %d", len(got.Winners), len(want.Winners))
	}
	for i := range got.Winners {
		if got.Winners[i] != want.Winners[i] {
			t.Fatalf("winner of presentation %d drifted: got %d, golden %d",
				i, got.Winners[i], want.Winners[i])
		}
	}
	if got.SpikeCRC != want.SpikeCRC {
		t.Fatalf("spike trace drifted: got %08x, golden %08x", got.SpikeCRC, want.SpikeCRC)
	}
	if got.WeightCRC != want.WeightCRC {
		t.Fatalf("final weights drifted: got %08x, golden %08x", got.WeightCRC, want.WeightCRC)
	}
	if got.ThetaCRC != want.ThetaCRC {
		t.Fatalf("final thetas drifted: got %08x, golden %08x", got.ThetaCRC, want.ThetaCRC)
	}
	assertInferTrace(t, InferTrace{Winners: got.InferWinners, Preds: got.InferPreds, VoteCRC: got.InferVoteCRC}, want)
}

func assertInferTrace(t *testing.T, got InferTrace, want Trace) {
	t.Helper()
	if len(got.Winners) != len(want.InferWinners) || len(got.Preds) != len(want.InferPreds) {
		t.Fatalf("inference replay length drifted: got %d/%d, golden %d/%d",
			len(got.Winners), len(got.Preds), len(want.InferWinners), len(want.InferPreds))
	}
	for i := range got.Winners {
		if got.Winners[i] != want.InferWinners[i] {
			t.Fatalf("inference winner of image %d drifted: got %d, golden %d",
				i, got.Winners[i], want.InferWinners[i])
		}
		if got.Preds[i] != want.InferPreds[i] {
			t.Fatalf("inference prediction of image %d drifted: got %d, golden %d",
				i, got.Preds[i], want.InferPreds[i])
		}
	}
	if got.VoteCRC != want.InferVoteCRC {
		t.Fatalf("inference vote trace drifted: got %08x, golden %08x", got.VoteCRC, want.InferVoteCRC)
	}
}

func TestCasesCoverGrid(t *testing.T) {
	cases := Cases()
	if len(cases) != 20 { // 2 rules × (3 formats × 3 roundings + float32)
		t.Fatalf("golden grid has %d cases, want 20", len(cases))
	}
	seen := map[string]bool{}
	for _, c := range cases {
		if seen[c.Name] {
			t.Fatalf("duplicate case name %q", c.Name)
		}
		seen[c.Name] = true
		if _, err := os.Stat(TracePath("testdata", c)); err != nil {
			t.Fatalf("case %s has no committed trace: %v", c.Name, err)
		}
	}
}

func TestDenseMatchesGolden(t *testing.T) {
	// The reference path reproduces the committed digests exactly. Any
	// change to encoding, integration, WTA, plasticity arithmetic or RNG
	// keying fails here first, naming the (rule, format, rounding) cell.
	// Each cell replays with one processor and with two: a presentation's
	// plan is built in chunks, by the presenting goroutine or by a helper
	// it spawns (network.Core.Encode), and who builds a chunk must not
	// move a digest.
	for _, c := range Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			for _, procs := range []int{1, 2} {
				func() {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					defer func() {
						if t.Failed() {
							t.Logf("GOMAXPROCS=%d", procs)
						}
					}()
					res, err := Run(c)
					if err != nil {
						t.Fatal(err)
					}
					assertTrace(t, res.Trace, committed(t, c))
				}()
			}
		})
	}
}

func TestLazyMatchesGolden(t *testing.T) {
	// The lazy engine must reproduce the *dense-recorded* digests — the
	// bit-identity acceptance criterion of the event-driven refactor —
	// including the full final weight matrix, compared value by value
	// against a fresh dense replay (CRCs alone could in principle collide).
	for _, c := range Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			lazy, err := Run(c, network.WithPlasticity(network.LazyPlasticity))
			if err != nil {
				t.Fatal(err)
			}
			assertTrace(t, lazy.Trace, committed(t, c))
			dense, err := Run(c)
			if err != nil {
				t.Fatal(err)
			}
			for i := range dense.Weights {
				if dense.Weights[i] != lazy.Weights[i] {
					t.Fatalf("weight %d: dense %v, lazy %v", i, dense.Weights[i], lazy.Weights[i])
				}
			}
			for i := range dense.Theta {
				if dense.Theta[i] != lazy.Theta[i] {
					t.Fatalf("theta %d: dense %v, lazy %v", i, dense.Theta[i], lazy.Theta[i])
				}
			}
		})
	}
}

func TestPooledInferMatchesGolden(t *testing.T) {
	// Frozen-weight inference fanned out over a worker pool reproduces the
	// sequentially recorded inference digests: scratch-state reuse across
	// goroutines must never leak into the spike trace. One representative
	// cell per rule; the full grid replays sequentially in
	// TestDenseMatchesGolden.
	pool := engine.New(4)
	defer pool.Close()
	for _, c := range Cases() {
		if c.Preset != synapse.Preset8Bit || c.Rounding != fixed.Stochastic {
			continue
		}
		c := c
		t.Run(c.Name, func(t *testing.T) {
			res, err := Run(c)
			if err != nil {
				t.Fatal(err)
			}
			it, err := InferReplay(c, res, infer.WithExecutor(pool))
			if err != nil {
				t.Fatal(err)
			}
			assertInferTrace(t, it, committed(t, c))
		})
	}
}

func TestPooledLazyMatchesGolden(t *testing.T) {
	// Worker-pool execution on top of the lazy engine still reproduces the
	// sequential dense digests. One representative cell per rule keeps the
	// suite fast; the full cross-product runs sequentially above.
	pool := engine.New(4)
	defer pool.Close()
	for _, c := range Cases() {
		if c.Preset != synapse.Preset8Bit || c.Rounding != fixed.Stochastic {
			continue
		}
		c := c
		t.Run(c.Name, func(t *testing.T) {
			res, err := Run(c,
				network.WithExecutor(pool),
				network.WithPlasticity(network.LazyPlasticity))
			if err != nil {
				t.Fatal(err)
			}
			assertTrace(t, res.Trace, committed(t, c))
		})
	}
}
