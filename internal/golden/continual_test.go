package golden

// Golden-audit regression: a checkpoint promoted by the continual trainer
// must be reproducible offline, bit for bit, from its audit record — the
// base checkpoint plus the in-order example log — under every execution
// strategy (dense/lazy plasticity × sequential/pooled executors). This is
// the same bit-identity contract the lazy/batched golden digests pin, lifted
// to the train-while-serve promotion path.

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"parallelspikesim/internal/check"
	"parallelspikesim/internal/continual"
	"parallelspikesim/internal/engine"
	"parallelspikesim/internal/fault"
	"parallelspikesim/internal/infer"
	"parallelspikesim/internal/learn"
	"parallelspikesim/internal/netio"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/registry"
)

// auditCases picks one case per conductance format off the golden grid,
// covering both rules, all three widths and the float32 store without
// replaying all 20.
func auditCases(t *testing.T) []Case {
	t.Helper()
	want := map[string]bool{
		"deterministic-2bit-trunc": true,
		"stochastic-8bit-nearest":  true,
		"stochastic-16bit-stoch":   true,
		"deterministic-float32":    true,
	}
	var out []Case
	for _, c := range Cases() {
		if want[c.Name] {
			out = append(out, c)
		}
	}
	if len(out) != len(want) {
		t.Fatalf("golden grid no longer contains the audit cases: got %d of %d", len(out), len(want))
	}
	return out
}

func TestGoldenAuditReplay(t *testing.T) {
	check.NoLeaks(t)
	pool := engine.New(4)
	defer pool.Close()

	for _, c := range auditCases(t) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			cfg, ctl, err := CaseConfig(c)
			if err != nil {
				t.Fatalf("case config: %v", err)
			}
			lopts := learn.DefaultOptions()
			lopts.Control = ctl
			lopts.NumClasses = InferClasses

			mem := fault.NewMemFS()
			inj := fault.NewInjector(mem)
			models, err := registry.New(func(s *netio.Snapshot) (registry.Engine, error) {
				return infer.FromSnapshot(s, cfg, ctl, InferClasses)
			}, InferClasses, registry.WithFS(inj))
			if err != nil {
				t.Fatalf("registry: %v", err)
			}

			data := CaseImages()
			tune := continual.DefaultTune()
			tune.MinHz, tune.MaxHz = ctl.Band.MinHz, ctl.Band.MaxHz
			tune.EmitEvery = data.Len() // one candidate covering every image
			tune.MinDelta = -1
			tune.ShadowSample = data.Len()
			ccfg := continual.Config{Name: "golden", Dir: "ckpt", QueueSize: 16, Tune: tune}
			tr, err := continual.New(ccfg, cfg, lopts, nil, models, continual.WithFS(inj))
			if err != nil {
				t.Fatalf("continual.New: %v", err)
			}
			defer tr.Close()
			if err := tr.Start(); err != nil {
				t.Fatalf("Start: %v", err)
			}
			for i := 0; i < data.Len(); i++ {
				for {
					err := tr.Submit(data.Images[i], data.Labels[i])
					if err == nil {
						break
					}
					if !errors.Is(err, continual.ErrQueueFull) {
						t.Fatalf("Submit: %v", err)
					}
					time.Sleep(time.Millisecond)
				}
			}
			deadline := time.Now().Add(60 * time.Second)
			for tr.Status().Candidates == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("no candidate emitted; status %+v", tr.Status())
				}
				time.Sleep(2 * time.Millisecond)
			}
			tr.Close()

			aud := tr.Audits()[0]
			if aud.Outcome != continual.OutcomeBootstrapped || aud.Examples != data.Len() {
				t.Fatalf("audit: %+v, want bootstrap over %d examples", aud, data.Len())
			}
			published, err := netio.LoadFileFS(inj, aud.Path)
			if err != nil {
				t.Fatalf("loading published snapshot: %v", err)
			}
			if got := published.PayloadCRC(); got != aud.PayloadCRC {
				t.Fatalf("published CRC %#x, audit %#x", got, aud.PayloadCRC)
			}
			base, err := netio.LoadFileFS(inj, tr.BasePath())
			if err != nil {
				t.Fatalf("loading base: %v", err)
			}
			log := tr.ExampleLog()

			variants := []struct {
				name string
				opts []network.Option
			}{
				{"lazy-sequential", nil},
				{"dense-sequential", []network.Option{network.WithPlasticity(network.DensePlasticity)}},
				{"lazy-pooled", []network.Option{network.WithPlasticity(network.LazyPlasticity), network.WithExecutor(pool)}},
				{"dense-pooled", []network.Option{network.WithPlasticity(network.DensePlasticity), network.WithExecutor(pool)}},
			}
			for _, v := range variants {
				replayed, err := continual.Replay(base, cfg, lopts, log, v.opts...)
				if err != nil {
					t.Fatalf("%s replay: %v", v.name, err)
				}
				if got := replayed.PayloadCRC(); got != aud.PayloadCRC {
					t.Errorf("%s: replay CRC %#x, published %#x", v.name, got, aud.PayloadCRC)
				}
				if !reflect.DeepEqual(replayed.G, published.G) {
					t.Errorf("%s: replayed conductances differ from published bytes", v.name)
				}
				if !reflect.DeepEqual(replayed.Theta, published.Theta) {
					t.Errorf("%s: replayed thresholds differ from published bytes", v.name)
				}
				if !reflect.DeepEqual(replayed.Assignments, published.Assignments) {
					t.Errorf("%s: replayed assignments differ from published bytes", v.name)
				}
			}
		})
	}
}
