package infer_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"parallelspikesim/internal/check"
	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/engine"
	"parallelspikesim/internal/fixed"
	"parallelspikesim/internal/golden"
	"parallelspikesim/internal/infer"
	"parallelspikesim/internal/learn"
	"parallelspikesim/internal/netio"
	"parallelspikesim/internal/network"
)

// The engine must satisfy the evaluation interfaces learn dispatches on.
var (
	_ learn.Classifier      = (*infer.Engine)(nil)
	_ learn.BatchClassifier = (*infer.Engine)(nil)
)

// trainCase trains a golden case's network and returns it with the frozen
// inference engine built from its trained state.
func trainCase(t *testing.T, c golden.Case, opts ...infer.Option) (*network.Network, encode.Control, *infer.Engine) {
	t.Helper()
	cfg, ctl, err := golden.CaseConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	net, eng := trainConfig(t, cfg, ctl, opts...)
	return net, ctl, eng
}

// trainConfig trains a network of cfg on the golden images and returns it
// with the frozen inference engine built from its trained state.
func trainConfig(t *testing.T, cfg network.Config, ctl encode.Control, opts ...infer.Option) (*network.Network, *infer.Engine) {
	t.Helper()
	net, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := golden.CaseImages()
	for i := 0; i < data.Len(); i++ {
		if _, err := net.Present(data.Images[i], ctl, true, nil); err != nil {
			t.Fatal(err)
		}
	}
	weights := net.Syn.Weights()
	g := make([]float64, len(weights))
	for i, w := range weights {
		g[i] = float64(w)
	}
	eng, err := infer.New(infer.Params{
		Net:         cfg,
		Control:     ctl,
		G:           g,
		Theta:       net.Exc.Theta(),
		Assignments: golden.InferAssignments(cfg.NumNeurons),
		NumClasses:  golden.InferClasses,
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return net, eng
}

// TestForwardMatchesPresent is the differential wall: across every golden
// preset (both rules × Q0.2/Q1.7/Q1.15 × all roundings, and both rules on
// float32), infer.Forward must be bit-identical in spike output to
// network.Present with plasticity disabled, at the exact step counter
// Present ran with. Both step through
// network.Core, so a divergence names what surrounds it — encoding, clock
// handling or spike-count bookkeeping — in a (rule, format, rounding) cell.
//
// Every preset runs with one processor and with two. A presentation's plan
// is built in chunks (network.Core.Encode): with one processor the
// presenting goroutine builds nearly every chunk itself, with two the
// helper it spawns builds most of them, and the spikes must not tell the
// two apart.
//
// The fractional-dt cells keep the two clocks honest: Present accumulates
// an absolute clock (now += dt) from a non-zero start step while Forward
// computes step·dt from zero, and every timer must still agree. They run a
// 2 ms inhibition window: under the default 30 ms window the winner re-arms
// inhibition before it expires, and with no refractory period no timer
// would decide a spike.
func TestForwardMatchesPresent(t *testing.T) {
	for _, c := range golden.Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			for _, procs := range []int{1, 2} {
				withGOMAXPROCS(t, procs, func() {
					net, ctl, eng := trainCase(t, c)
					checkForwardMatchesPresent(t, net, ctl, eng)
				})
			}
		})
	}
	for _, c := range []golden.Case{golden.Cases()[4], golden.Cases()[14]} {
		for _, dt := range []float64{0.1, 0.7} {
			c, dt := c, dt
			t.Run(fmt.Sprintf("%s-dt%g", c.Name, dt), func(t *testing.T) {
				cfg, ctl, err := golden.CaseConfig(c)
				if err != nil {
					t.Fatal(err)
				}
				cfg.DTms = dt
				cfg.TInhMS = 2
				net, eng := trainConfig(t, cfg, ctl)
				if net.Step() == 0 {
					t.Fatal("training left the step counter at 0; the clocks were not exercised apart")
				}
				checkForwardMatchesPresent(t, net, ctl, eng)
			})
		}
	}
}

// TestPresentAndForwardLeaveNoGoroutine checks that the plan helper each
// presentation spawns has exited once Present and Forward return, for
// learning and evaluation presentations alike.
func TestPresentAndForwardLeaveNoGoroutine(t *testing.T) {
	check.NoLeaks(t)
	net, ctl, eng := trainCase(t, golden.Cases()[0])
	data := golden.CaseImages()
	for i := 0; i < data.Len(); i++ {
		start := net.Step()
		if _, err := net.Present(data.Images[i], ctl, i%2 == 0, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Forward(data.Images[i], start); err != nil {
			t.Fatal(err)
		}
	}
}

// withGOMAXPROCS runs fn with GOMAXPROCS set to procs, restoring it after,
// and names procs in the log of a test that fn failed.
func withGOMAXPROCS(t *testing.T, procs int, fn func()) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	defer func() {
		if t.Failed() {
			t.Logf("GOMAXPROCS=%d", procs)
		}
	}()
	fn()
}

// checkForwardMatchesPresent presents every golden image without learning
// and fails unless Forward at the same start step reproduces the result.
func checkForwardMatchesPresent(t *testing.T, net *network.Network, ctl encode.Control, eng *infer.Engine) {
	t.Helper()
	data := golden.CaseImages()
	for i := 0; i < data.Len(); i++ {
		start := net.Step()
		want, err := net.Present(data.Images[i], ctl, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Forward(data.Images[i], start)
		if err != nil {
			t.Fatal(err)
		}
		if got.Steps != want.Steps || got.InputSpikes != want.InputSpikes {
			t.Fatalf("image %d at step %d: got %d steps/%d input spikes, Present %d/%d",
				i, start, got.Steps, got.InputSpikes, want.Steps, want.InputSpikes)
		}
		for n := range want.SpikeCounts {
			if got.SpikeCounts[n] != want.SpikeCounts[n] {
				t.Fatalf("image %d at step %d: neuron %d spiked %d times, Present %d",
					i, start, n, got.SpikeCounts[n], want.SpikeCounts[n])
			}
		}
		gw, _ := got.Winner()
		ww, _ := want.Winner()
		if gw != ww {
			t.Fatalf("image %d at step %d: winner %d, Present %d", i, start, gw, ww)
		}
	}
}

// TestForwardMatchesPresentAtBandEdges pushes the same differential through
// the encoding band edges — the 0 Hz silent floor, the 5 Hz and 78 Hz
// high-frequency edges and a degenerate zero-width band — pinning the
// sparse plan builder's boundary behaviour inside the full inference
// pipeline.
func TestForwardMatchesPresentAtBandEdges(t *testing.T) {
	bands := []encode.Band{
		{MinHz: 0, MaxHz: 78},
		{MinHz: 5, MaxHz: 78},
		{MinHz: 0, MaxHz: 5},
		{MinHz: 78, MaxHz: 78},
	}
	base := golden.Cases()[0]
	data := golden.CaseImages()
	for _, band := range bands {
		cfg, ctl, err := golden.CaseConfig(base)
		if err != nil {
			t.Fatal(err)
		}
		ctl.Band = band
		net, err := network.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		weights := net.Syn.Weights()
		g := make([]float64, len(weights))
		for i, w := range weights {
			g[i] = float64(w)
		}
		eng, err := infer.New(infer.Params{
			Net:         cfg,
			Control:     ctl,
			G:           g,
			Theta:       net.Exc.Theta(),
			Assignments: golden.InferAssignments(cfg.NumNeurons),
			NumClasses:  golden.InferClasses,
		})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("[%v,%v]Hz", band.MinHz, band.MaxHz)
		for i := 0; i < data.Len(); i++ {
			start := net.Step()
			want, err := net.Present(data.Images[i], ctl, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Forward(data.Images[i], start)
			if err != nil {
				t.Fatal(err)
			}
			if got.InputSpikes != want.InputSpikes {
				t.Fatalf("%s image %d: %d input spikes, Present %d",
					label, i, got.InputSpikes, want.InputSpikes)
			}
			for n := range want.SpikeCounts {
				if got.SpikeCounts[n] != want.SpikeCounts[n] {
					t.Fatalf("%s image %d: neuron %d spiked %d times, Present %d",
						label, i, n, got.SpikeCounts[n], want.SpikeCounts[n])
				}
			}
		}
	}
}

func TestForwardRepeatable(t *testing.T) {
	// Same image, same start step → identical spike vector, however many
	// presentations ran in between (scratch reuse must be invisible).
	_, _, eng := trainCase(t, golden.Cases()[0])
	img := golden.CaseImages().Images[0]
	first, err := eng.Forward(img, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Forward(golden.CaseImages().Images[1], 99); err != nil {
		t.Fatal(err)
	}
	again, err := eng.Forward(img, 7)
	if err != nil {
		t.Fatal(err)
	}
	for n := range first.SpikeCounts {
		if first.SpikeCounts[n] != again.SpikeCounts[n] {
			t.Fatalf("neuron %d: %d then %d spikes for identical presentations",
				n, first.SpikeCounts[n], again.SpikeCounts[n])
		}
	}
}

func TestEngineIsImmutable(t *testing.T) {
	c := golden.Cases()[0]
	net, _, eng := trainCase(t, c)
	img := golden.CaseImages().Images[2]
	before, err := eng.Predict(img, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Scribble over every slice the engine was built from: the trained
	// network's matrix and thetas, and the assignment table generator's
	// output is fresh each call so nothing to corrupt there.
	net.Syn.Fill(0)
	th := net.Exc.Theta()
	for i := range th {
		th[i] = 1e6
	}
	after, err := eng.Predict(img, 0)
	if err != nil {
		t.Fatal(err)
	}
	if before.Class != after.Class || before.Winner != after.Winner || before.Spikes != after.Spikes {
		t.Fatalf("engine state aliased its inputs: %+v then %+v", before, after)
	}
}

func TestClassifyDeterministicAndConcurrent(t *testing.T) {
	pool := engine.New(4)
	defer pool.Close()
	_, _, eng := trainCase(t, golden.Cases()[4], infer.WithExecutor(pool))
	data := golden.CaseImages()
	want := make([]int, data.Len())
	for i := range want {
		p, err := eng.Predict(data.Images[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p.Class
	}
	// Hammer Classify from many goroutines; every call must reproduce the
	// sequential answer (and the race detector watches the scratch pool).
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for i := range want {
					got, err := eng.Classify(data.Images[i])
					if err != nil {
						errCh <- err
						return
					}
					if got != want[i] {
						t.Errorf("image %d: class %d, want %d", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestBatchMatchesSequentialSchedule(t *testing.T) {
	pool := engine.New(4)
	defer pool.Close()
	_, _, seq := trainCase(t, golden.Cases()[9])
	_, _, par := trainCase(t, golden.Cases()[9], infer.WithExecutor(pool))
	data := golden.CaseImages()
	want := make([]int, data.Len())
	for i := range want {
		p, err := seq.Predict(data.Images[i], uint64(i)*uint64(seq.StepsPerImage()))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p.Class
	}
	got, err := par.ClassifyBatch(data.Images)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("image %d: batch class %d, sequential %d", i, got[i], want[i])
		}
	}
	if _, err := par.ClassifyBatch([][]uint8{data.Images[0], make([]uint8, 3)}); err == nil {
		t.Fatal("batch with a wrong-size image accepted")
	}
	if got, err := par.ClassifyBatch(nil); err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %v, %v", got, err)
	}
}

func TestEvaluateClassifierOverEngine(t *testing.T) {
	// The held-out evaluation helper and the serving engine compose: the
	// batch upgrade path runs and yields one prediction per image.
	_, _, eng := trainCase(t, golden.Cases()[0])
	data := golden.CaseImages()
	conf, err := learn.EvaluateClassifier(eng, data, golden.InferClasses)
	if err != nil {
		t.Fatal(err)
	}
	if conf.Total() != data.Len() {
		t.Fatalf("confusion holds %d samples, want %d", conf.Total(), data.Len())
	}
}

func TestFromSnapshot(t *testing.T) {
	c := golden.Cases()[0]
	cfg, ctl, err := golden.CaseConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	net, _, seqEng := trainCase(t, c)
	s := netio.Capture(net, &learn.Model{Assignments: golden.InferAssignments(cfg.NumNeurons)})
	eng, err := infer.FromSnapshot(s, cfg, ctl, golden.InferClasses)
	if err != nil {
		t.Fatal(err)
	}
	img := golden.CaseImages().Images[0]
	want, err := seqEng.Predict(img, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Predict(img, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Class != want.Class || got.Winner != want.Winner || got.Spikes != want.Spikes {
		t.Fatalf("snapshot round-trip changed the prediction: %+v, want %+v", got, want)
	}

	// Geometry and format mismatches are refused.
	badCfg := cfg
	badCfg.NumNeurons++
	if _, err := infer.FromSnapshot(s, badCfg, ctl, golden.InferClasses); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
	badCfg = cfg
	badCfg.Syn.Format = fixed.Float32
	if _, err := infer.FromSnapshot(s, badCfg, ctl, golden.InferClasses); err == nil {
		t.Fatal("format mismatch accepted")
	}
	// An unlabeled snapshot cannot serve.
	unlabeled := netio.Capture(net, nil)
	if _, err := infer.FromSnapshot(unlabeled, cfg, ctl, golden.InferClasses); err == nil {
		t.Fatal("unlabeled snapshot accepted")
	}
}

func TestNewRejectsBadParams(t *testing.T) {
	cfg, ctl, err := golden.CaseConfig(golden.Cases()[0])
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.NumInputs * cfg.NumNeurons
	good := func() infer.Params {
		return infer.Params{
			Net:         cfg,
			Control:     ctl,
			G:           make([]float64, n),
			Theta:       make([]float64, cfg.NumNeurons),
			Assignments: golden.InferAssignments(cfg.NumNeurons),
			NumClasses:  golden.InferClasses,
		}
	}
	if _, err := infer.New(good()); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*infer.Params)
	}{
		{"zero classes", func(p *infer.Params) { p.NumClasses = 0 }},
		{"short G", func(p *infer.Params) { p.G = p.G[:n-1] }},
		{"short theta", func(p *infer.Params) { p.Theta = p.Theta[:1] }},
		{"missing assignments", func(p *infer.Params) { p.Assignments = nil }},
		{"assignment out of range", func(p *infer.Params) { p.Assignments[0] = golden.InferClasses }},
		{"negative conductance", func(p *infer.Params) { p.G[0] = -1 }},
		{"bad control", func(p *infer.Params) { p.Control.TLearnMS = 0 }},
		{"bad geometry", func(p *infer.Params) { p.Net.NumInputs = 0 }},
		{"sub-step presentation", func(p *infer.Params) { p.Control.TLearnMS = p.Net.DTms / 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := good()
			tc.mutate(&p)
			if _, err := infer.New(p); err == nil {
				t.Fatal("invalid params accepted")
			}
		})
	}
}

func TestForwardRejectsWrongImageSize(t *testing.T) {
	_, _, eng := trainCase(t, golden.Cases()[0])
	if _, err := eng.Forward(make([]uint8, 5), 0); err == nil {
		t.Fatal("wrong-size image accepted")
	}
	if _, err := eng.Classify(make([]uint8, 5)); err == nil {
		t.Fatal("wrong-size image accepted by Classify")
	}
}
