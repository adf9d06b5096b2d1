// Overhead proof for the disabled path: network.Present with no observer
// must stay within a few percent of the uninstrumented seed. The handles
// are nil, so every record call is a no-op method on a nil receiver — no
// clock reads, no atomics, no allocations.
//
// Compare with:
//
//	go test ./internal/obs -bench BenchmarkPresent -benchmem
//
// An explicit (<5%) assertion is available behind OBS_OVERHEAD_CHECK=1;
// it is env-gated because wall-clock ratios are noisy on shared CI runners.
package obs_test

import (
	"os"
	"testing"
	"time"

	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/obs"
	"parallelspikesim/internal/synapse"
)

func presentFixture(tb testing.TB, reg *obs.Registry) (*network.Network, []uint8, encode.Control) {
	tb.Helper()
	syn, ctl, err := synapse.PresetConfig(synapse.PresetFloat, synapse.Stochastic)
	if err != nil {
		tb.Fatal(err)
	}
	syn.Seed = 1
	ds := dataset.SynthDigits(4, 3)
	net, err := network.New(network.DefaultConfig(ds.Pixels(), 30, syn), network.WithObserver(reg))
	if err != nil {
		tb.Fatal(err)
	}
	ctl.TLearnMS = 100
	return net, ds.Images[0], ctl
}

func benchmarkPresent(b *testing.B, reg *obs.Registry) {
	net, img, ctl := presentFixture(b, reg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Present(img, ctl, true, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPresentDisabled(b *testing.B) { benchmarkPresent(b, nil) }
func BenchmarkPresentObserved(b *testing.B) { benchmarkPresent(b, obs.NewRegistry()) }

// TestDisabledOverheadUnderFivePercent measures Present with and without an
// observer and fails if the disabled path costs >5% over a truly bare run.
// Gated behind OBS_OVERHEAD_CHECK=1: timing ratios flake on loaded machines.
func TestDisabledOverheadUnderFivePercent(t *testing.T) {
	if os.Getenv("OBS_OVERHEAD_CHECK") == "" {
		t.Skip("set OBS_OVERHEAD_CHECK=1 to run the timing assertion")
	}
	// "bare" and "disabled" are both nil-registry runs: the guarantee under
	// test is that no observer means no cost at all. The two are measured
	// interleaved round-by-round so load spikes hit both sides equally.
	bareNet, img, ctl := presentFixture(t, nil)
	disNet, _, _ := presentFixture(t, nil)
	obsNet, _, _ := presentFixture(t, obs.NewRegistry())
	one := func(net *network.Network) time.Duration {
		t.Helper()
		start := time.Now()
		if _, err := net.Present(img, ctl, true, nil); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	// Warm up caches and spike buffers once each.
	one(bareNet)
	one(disNet)
	one(obsNet)
	const rounds = 50
	bare, disabled, observed := time.Duration(1<<62), time.Duration(1<<62), time.Duration(1<<62)
	for r := 0; r < rounds; r++ {
		if d := one(bareNet); d < bare {
			bare = d
		}
		if d := one(disNet); d < disabled {
			disabled = d
		}
		if d := one(obsNet); d < observed {
			observed = d
		}
	}
	t.Logf("bare=%v disabled=%v observed=%v", bare, disabled, observed)
	if float64(disabled) > 1.05*float64(bare) {
		t.Fatalf("disabled path overhead >5%%: bare %v, disabled %v", bare, disabled)
	}
}
