package network

import (
	"math"
	"testing"

	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/engine"
	"parallelspikesim/internal/fixed"
	"parallelspikesim/internal/synapse"
)

func testConfig(t *testing.T, kind synapse.RuleKind, neurons int) Config {
	t.Helper()
	syn, _, err := synapse.PresetConfig(synapse.PresetFloat, kind)
	if err != nil {
		t.Fatal(err)
	}
	syn.Seed = 42
	return DefaultConfig(28*28, neurons, syn)
}

func testImage() []uint8 {
	img := make([]uint8, 784)
	// A bright block: rows 10-17, cols 10-17.
	for y := 10; y < 18; y++ {
		for x := 10; x < 18; x++ {
			img[y*28+x] = 255
		}
	}
	return img
}

func TestConfigValidate(t *testing.T) {
	cfg := testConfig(t, synapse.Stochastic, 10)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.NumInputs = 0
	if bad.Validate() == nil {
		t.Error("zero inputs accepted")
	}
	bad = cfg
	bad.DTms = 0
	if bad.Validate() == nil {
		t.Error("zero dt accepted")
	}
	bad = cfg
	bad.SpikeAmp = -1
	if bad.Validate() == nil {
		t.Error("negative amp accepted")
	}
	bad = cfg
	bad.InitGHi = bad.InitGLo - 0.1
	if bad.Validate() == nil {
		t.Error("inverted init range accepted")
	}
	bad = cfg
	bad.TauSynMS = -1
	if bad.Validate() == nil {
		t.Error("negative TauSyn accepted")
	}
}

func TestNewNetwork(t *testing.T) {
	cfg := testConfig(t, synapse.Stochastic, 10)
	net, err := New(cfg, nil) // nil executor defaults to sequential
	if err != nil {
		t.Fatal(err)
	}
	if net.Exc.Len() != 10 || net.Syn.NPre != 784 || net.Syn.NPost != 10 {
		t.Fatal("geometry wrong")
	}
	minG, maxG, _ := net.Syn.Stats()
	if minG < cfg.InitGLo-0.01 || maxG > cfg.InitGHi+0.01 {
		t.Fatalf("init conductances out of range: %v..%v", minG, maxG)
	}
	bad := cfg
	bad.NumNeurons = 0
	if _, err := New(bad, nil); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestPresentRejectsWrongImageSize(t *testing.T) {
	net, _ := New(testConfig(t, synapse.Stochastic, 10), nil)
	if _, err := net.Present(make([]uint8, 100), encode.BaselineControl(), false, nil); err == nil {
		t.Fatal("wrong image size accepted")
	}
}

func TestPresentRejectsInvalidControl(t *testing.T) {
	net, _ := New(testConfig(t, synapse.Stochastic, 10), nil)
	bad := encode.Control{Band: encode.Band{MinHz: 10, MaxHz: 5}, TLearnMS: 100}
	if _, err := net.Present(testImage(), bad, false, nil); err == nil {
		t.Fatal("invalid control accepted")
	}
	// Shorter than one step: a presentation that would run zero steps.
	short := encode.Control{Band: encode.BaselineBand(), TLearnMS: net.Cfg.DTms / 2}
	if _, err := net.Present(testImage(), short, true, nil); err == nil {
		t.Fatal("zero-step presentation accepted")
	}
}

func TestPresentDrivesSpikes(t *testing.T) {
	net, _ := New(testConfig(t, synapse.Stochastic, 10), nil)
	ctl := encode.Control{Band: encode.HighFrequencyBand(), TLearnMS: 300}
	res, err := net.Present(testImage(), ctl, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.InputSpikes == 0 {
		t.Fatal("no input spikes")
	}
	if res.TotalSpikes() == 0 {
		t.Fatal("no first-layer spikes under high-frequency drive")
	}
	if res.Steps != 300 {
		t.Fatalf("steps = %d", res.Steps)
	}
	w, c := res.Winner()
	if w < 0 || c <= 0 {
		t.Fatalf("no winner: %d/%d", w, c)
	}
}

func TestWTASingleActiveNeuron(t *testing.T) {
	// With inhibition enabled and one strong stimulus, the winner should
	// lock: almost all spikes belong to one neuron.
	net, _ := New(testConfig(t, synapse.Stochastic, 20), nil)
	ctl := encode.Control{Band: encode.HighFrequencyBand(), TLearnMS: 400}
	res, _ := net.Present(testImage(), ctl, false, nil)
	_, winnerSpikes := res.Winner()
	if total := res.TotalSpikes(); total > 0 && float64(winnerSpikes)/float64(total) < 0.6 {
		t.Fatalf("winner took %d of %d spikes; WTA not locking", winnerSpikes, total)
	}
}

func TestNoWTAManyActiveNeurons(t *testing.T) {
	cfg := testConfig(t, synapse.Stochastic, 20)
	cfg.TInhMS = 0
	net, _ := New(cfg, nil)
	ctl := encode.Control{Band: encode.HighFrequencyBand(), TLearnMS: 400}
	res, _ := net.Present(testImage(), ctl, false, nil)
	active := 0
	for _, c := range res.SpikeCounts {
		if c > 0 {
			active++
		}
	}
	if active < 10 {
		t.Fatalf("only %d neurons active without inhibition", active)
	}
}

func TestLearningChangesConductance(t *testing.T) {
	net, _ := New(testConfig(t, synapse.Stochastic, 10), nil)
	before := net.Syn.Weights()
	ctl := encode.Control{Band: encode.HighFrequencyBand(), TLearnMS: 300}
	if _, err := net.Present(testImage(), ctl, true, nil); err != nil {
		t.Fatal(err)
	}
	changed := 0
	for i, g := range net.Syn.Weights() {
		if before[i] != g {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("learning presentation changed no conductances")
	}
}

func TestNoLearningKeepsConductance(t *testing.T) {
	net, _ := New(testConfig(t, synapse.Deterministic, 10), nil)
	before := net.Syn.Weights()
	ctl := encode.Control{Band: encode.HighFrequencyBand(), TLearnMS: 300}
	if _, err := net.Present(testImage(), ctl, false, nil); err != nil {
		t.Fatal(err)
	}
	for i, g := range net.Syn.Weights() {
		if before[i] != g {
			t.Fatal("inference presentation changed conductances")
		}
	}
}

func TestLearningImprintsStimulus(t *testing.T) {
	// After repeated presentations of one pattern, the winner's receptive
	// field must be higher on stimulated pixels than elsewhere.
	net, _ := New(testConfig(t, synapse.Deterministic, 5), nil)
	img := testImage()
	ctl := encode.Control{Band: encode.HighFrequencyBand(), TLearnMS: 300}
	var last PresentResult
	for i := 0; i < 5; i++ {
		last, _ = net.Present(img, ctl, true, nil)
	}
	w, _ := last.Winner()
	if w < 0 {
		t.Fatal("no winner after training")
	}
	rf := make([]float64, 784)
	net.Syn.Column(w, rf)
	var onSum, offSum float64
	var onN, offN int
	for p, g := range rf {
		if img[p] > 0 {
			onSum += g
			onN++
		} else {
			offSum += g
			offN++
		}
	}
	onMean, offMean := onSum/float64(onN), offSum/float64(offN)
	if onMean <= offMean*1.5 {
		t.Fatalf("no imprint: on-pixel mean g %v vs off %v", onMean, offMean)
	}
}

func TestRecorderCapturesSpikes(t *testing.T) {
	net, _ := New(testConfig(t, synapse.Stochastic, 10), nil)
	rec := &Recorder{}
	ctl := encode.Control{Band: encode.HighFrequencyBand(), TLearnMS: 200}
	res, _ := net.Present(testImage(), ctl, false, rec)
	if len(rec.InputSpikes) != res.InputSpikes {
		t.Fatalf("recorder input spikes %d != result %d", len(rec.InputSpikes), res.InputSpikes)
	}
	if len(rec.NeuronSpikes) != res.TotalSpikes() {
		t.Fatalf("recorder neuron spikes %d != result %d", len(rec.NeuronSpikes), res.TotalSpikes())
	}
	for _, ev := range rec.InputSpikes {
		if ev.Index < 0 || ev.Index >= 784 || ev.TimeMS < 0 || ev.TimeMS >= net.Now() {
			t.Fatalf("bad input event %+v", ev)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	// The central reproducibility claim: the worker-pool engine produces
	// bit-identical results to sequential execution, for both rules. Dense
	// presentations never dispatch; lazy ones split the end flush.
	data := dataset.SynthDigits(6, 3)
	ctl := encode.Control{Band: encode.BaselineBand(), TLearnMS: 150}
	for _, kind := range []synapse.RuleKind{synapse.Deterministic, synapse.Stochastic} {
		for _, mode := range []PlasticityMode{DensePlasticity, LazyPlasticity} {
			// odd count: uneven partitions
			checkParallelMatchesSequential(t, kind.String()+"/"+mode.String(), testConfig(t, kind, 23), 4, ctl, data, WithPlasticity(mode))
		}
	}
}

// TestParallelMatchesSequentialPacked is TestParallelMatchesSequential at
// the paper's layer width on every packed format, in both plasticity modes.
// Steps run inline, so the pool only splits the lazy end-of-presentation
// flush: 784 rows of 1000 packed lanes over 3 workers. Kernel-level
// coverage of integrate windows that start or end inside a packed word is
// TestAccumulateRowsMatchesPerRow in internal/fixed.
func TestParallelMatchesSequentialPacked(t *testing.T) {
	data := dataset.SynthDigits(3, 5)
	ctl := encode.Control{Band: encode.HighFrequencyBand(), TLearnMS: 100}
	for _, preset := range []synapse.Preset{synapse.Preset2Bit, synapse.Preset4Bit, synapse.Preset8Bit, synapse.Preset16Bit} {
		syn, _, err := synapse.PresetConfig(preset, synapse.Stochastic)
		if err != nil {
			t.Fatal(err)
		}
		syn.Seed = 42
		cfg := DefaultConfig(28*28, 1000, syn)
		for _, mode := range []PlasticityMode{DensePlasticity, LazyPlasticity} {
			checkParallelMatchesSequential(t, string(preset)+"/"+mode.String(), cfg, 3, ctl, data, WithPlasticity(mode))
		}
	}
}

// checkParallelMatchesSequential trains one network sequentially and one
// on a pool of the given width over the same images and fails unless spike
// counts, weights and membranes match exactly. It also compares the
// synaptic current after every presentation: under winner-take-all most
// membranes end a presentation clamped at reset, which would hide an
// integrate kernel that dropped a few lanes' input. opts apply to both
// networks.
func checkParallelMatchesSequential(t *testing.T, name string, cfg Config, workers int, ctl encode.Control, data *dataset.Dataset, opts ...Option) {
	t.Helper()
	seqNet, err := New(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	pool := engine.New(workers)
	defer pool.Close()
	parNet, err := New(cfg, append(opts, WithExecutor(pool))...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < data.Len(); i++ {
		rs, err1 := seqNet.Present(data.Images[i], ctl, true, nil)
		rp, err2 := parNet.Present(data.Images[i], ctl, true, nil)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		for n := range rs.SpikeCounts {
			if rs.SpikeCounts[n] != rp.SpikeCounts[n] {
				t.Fatalf("%s: image %d neuron %d spikes differ: %d vs %d",
					name, i, n, rs.SpikeCounts[n], rp.SpikeCounts[n])
			}
		}
		if rs.InputSpikes != rp.InputSpikes {
			t.Fatalf("%s: image %d input spikes differ", name, i)
		}
		for n := range seqNet.core.current {
			if math.Float64bits(seqNet.core.current[n]) != math.Float64bits(parNet.core.current[n]) {
				t.Fatalf("%s: image %d current %d diverged: %v vs %v",
					name, i, n, seqNet.core.current[n], parNet.core.current[n])
			}
		}
	}
	if seqNet.TotalExcSpikes == 0 {
		t.Fatalf("%s: no neuron fired; the wall would compare silent layers", name)
	}
	ws, wp := seqNet.Syn.Weights(), parNet.Syn.Weights()
	for i := range ws {
		if ws[i] != wp[i] {
			t.Fatalf("%s: conductance %d diverged: %v vs %v", name, i, ws[i], wp[i])
		}
	}
	for i := range seqNet.Exc.V {
		if math.Float64bits(seqNet.Exc.V[i]) != math.Float64bits(parNet.Exc.V[i]) {
			t.Fatalf("%s: membrane %d diverged: %v vs %v", name, i, seqNet.Exc.V[i], parNet.Exc.V[i])
		}
	}
}

func TestPresentationsAreReproducible(t *testing.T) {
	cfg := testConfig(t, synapse.Stochastic, 10)
	run := func() []fixed.Weight {
		net, _ := New(cfg, nil)
		ctl := encode.Control{Band: encode.BaselineBand(), TLearnMS: 200}
		img := testImage()
		for i := 0; i < 3; i++ {
			if _, err := net.Present(img, ctl, true, nil); err != nil {
				t.Fatal(err)
			}
		}
		return net.Syn.Weights()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("identical runs diverged at synapse %d", i)
		}
	}
}

func TestFreezeThetaDuringEvaluation(t *testing.T) {
	net, _ := New(testConfig(t, synapse.Stochastic, 10), nil)
	ctl := encode.Control{Band: encode.HighFrequencyBand(), TLearnMS: 200}
	// Training presentation accumulates theta.
	net.Present(testImage(), ctl, true, nil)
	sum := 0.0
	for _, th := range net.Exc.Theta() {
		sum += th
	}
	if sum == 0 {
		t.Fatal("no theta after training presentation")
	}
	// Evaluation presentation must not change theta.
	before := append([]float64(nil), net.Exc.Theta()...)
	net.Present(testImage(), ctl, false, nil)
	for i, th := range net.Exc.Theta() {
		if th != before[i] {
			t.Fatal("theta changed during evaluation presentation")
		}
	}
}

func TestQuantizedNetworkStaysOnGrid(t *testing.T) {
	syn, _, _ := synapse.PresetConfig(synapse.Preset8Bit, synapse.Stochastic)
	syn.Seed = 9
	cfg := DefaultConfig(784, 10, syn)
	net, _ := New(cfg, nil)
	ctl := encode.Control{Band: encode.BaselineBand(), TLearnMS: 300}
	for i := 0; i < 3; i++ {
		if _, err := net.Present(testImage(), ctl, true, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i, g := range net.Syn.Weights() {
		if !syn.Format.OnGrid(float64(g)) {
			t.Fatalf("synapse %d off grid: %v", i, g)
		}
		if g < 0 || float64(g) > syn.GCeil()+1e-12 {
			t.Fatalf("synapse %d out of range: %v", i, g)
		}
	}
}

func TestDiagnosticsAccumulate(t *testing.T) {
	net, _ := New(testConfig(t, synapse.Stochastic, 10), nil)
	ctl := encode.Control{Band: encode.HighFrequencyBand(), TLearnMS: 200}
	res, _ := net.Present(testImage(), ctl, true, nil)
	if net.TotalInputSpikes != uint64(res.InputSpikes) {
		t.Fatal("input spike diagnostic mismatch")
	}
	if net.TotalExcSpikes != uint64(res.TotalSpikes()) {
		t.Fatal("exc spike diagnostic mismatch")
	}
	if res.TotalSpikes() > 0 && net.TotalInhEvents == 0 {
		t.Fatal("no inhibition events despite spikes")
	}
	if net.Now() != 200 || net.Step() != 200 {
		t.Fatalf("clock: now %v step %d", net.Now(), net.Step())
	}
}

func TestPresentResultWinnerEmpty(t *testing.T) {
	r := PresentResult{SpikeCounts: []int{0, 0, 0}}
	if w, c := r.Winner(); w != -1 || c != 0 {
		t.Fatalf("Winner of silent result = %d/%d", w, c)
	}
}

func TestMembraneFiniteAfterLongRun(t *testing.T) {
	net, _ := New(testConfig(t, synapse.Deterministic, 10), nil)
	ctl := encode.Control{Band: encode.HighFrequencyBand(), TLearnMS: 500}
	for i := 0; i < 4; i++ {
		net.Present(testImage(), ctl, true, nil)
	}
	for i, v := range net.Exc.V {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("membrane %d = %v", i, v)
		}
	}
}

func BenchmarkPresentSequential100(b *testing.B) {
	syn, _, _ := synapse.PresetConfig(synapse.PresetFloat, synapse.Stochastic)
	cfg := DefaultConfig(784, 100, syn)
	net, _ := New(cfg)
	img := testImage()
	ctl := encode.Control{Band: encode.BaselineBand(), TLearnMS: 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Present(img, ctl, true, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPresentParallel100(b *testing.B) {
	syn, _, _ := synapse.PresetConfig(synapse.PresetFloat, synapse.Stochastic)
	cfg := DefaultConfig(784, 100, syn)
	pool := engine.New(engine.Auto)
	defer pool.Close()
	net, _ := New(cfg, WithExecutor(pool))
	img := testImage()
	ctl := encode.Control{Band: encode.BaselineBand(), TLearnMS: 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Present(img, ctl, true, nil); err != nil {
			b.Fatal(err)
		}
	}
}
