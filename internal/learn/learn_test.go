package learn

import (
	"errors"
	"testing"

	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/synapse"
)

func testNet(t *testing.T, kind synapse.RuleKind, neurons int, seed uint64) *network.Network {
	t.Helper()
	syn, _, err := synapse.PresetConfig(synapse.PresetFloat, kind)
	if err != nil {
		t.Fatal(err)
	}
	syn.Seed = seed
	cfg := network.DefaultConfig(784, neurons, syn)
	net, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// fastOptions shrinks presentation time so tests stay quick.
func fastOptions() Options {
	o := DefaultOptions()
	o.Control.TLearnMS = 150
	return o
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultOptions()
	bad.BoostFactor = 1.0
	if bad.Validate() == nil {
		t.Error("boost factor 1.0 accepted")
	}
	bad = DefaultOptions()
	bad.MovingWindow = 0
	if bad.Validate() == nil {
		t.Error("zero moving window accepted")
	}
	bad = DefaultOptions()
	bad.Control.TLearnMS = -5
	if bad.Validate() == nil {
		t.Error("invalid control accepted")
	}
}

func TestNewValidation(t *testing.T) {
	net := testNet(t, synapse.Stochastic, 5, 1)
	neg := fastOptions()
	neg.NumClasses = -1
	if _, err := New(net, neg); err == nil {
		t.Error("negative classes accepted")
	}
	bad := fastOptions()
	bad.MovingWindow = -1
	if _, err := New(net, bad); err == nil {
		t.Error("invalid options accepted")
	}
	tr, err := New(net, fastOptions())
	if err != nil || tr == nil {
		t.Fatal(err)
	}
	if tr.numClasses != 10 {
		t.Errorf("NumClasses 0 resolved to %d classes, want 10", tr.numClasses)
	}
}

func TestTrainImageRejectsBadLabel(t *testing.T) {
	net := testNet(t, synapse.Stochastic, 5, 1)
	tr, _ := New(net, fastOptions())
	if _, err := tr.TrainImage(make([]uint8, 784), 10); err == nil {
		t.Fatal("out-of-range label accepted")
	}
}

func TestTrainAccumulatesState(t *testing.T) {
	data := dataset.SynthDigits(10, 7)
	net := testNet(t, synapse.Stochastic, 10, 2)
	tr, _ := New(net, fastOptions())
	if err := tr.Train(data, nil); err != nil {
		t.Fatal(err)
	}
	if tr.ImagesSeen != 10 {
		t.Fatalf("ImagesSeen = %d", tr.ImagesSeen)
	}
	if len(tr.MovingErrorCurve()) != 10 {
		t.Fatalf("moving curve length %d", len(tr.MovingErrorCurve()))
	}
	if rate := tr.MovingError(); rate < 0 || rate > 1 {
		t.Fatalf("moving error %v", rate)
	}
}

func TestProgressCallback(t *testing.T) {
	data := dataset.SynthDigits(5, 7)
	net := testNet(t, synapse.Stochastic, 5, 2)
	tr, _ := New(net, fastOptions())
	calls := 0
	if err := tr.Train(data, func(i int, e float64) {
		if i != calls {
			t.Fatalf("progress index %d, want %d", i, calls)
		}
		calls++
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 5 {
		t.Fatalf("progress called %d times", calls)
	}
}

func TestBoostTriggersOnSilentImages(t *testing.T) {
	// An almost-black image at the baseline band elicits nearly no spikes;
	// the adaptive boost must kick in.
	net := testNet(t, synapse.Stochastic, 5, 3)
	opts := fastOptions()
	opts.Control.Band = encode.Band{MinHz: 0.05, MaxHz: 1} // deliberately weak
	tr, _ := New(net, opts)
	dark := make([]uint8, 784)
	for i := 200; i < 260; i++ {
		dark[i] = 40
	}
	if _, err := tr.TrainImage(dark, 0); err != nil {
		t.Fatal(err)
	}
	if tr.BoostCount == 0 {
		t.Fatal("boost never triggered on a near-silent presentation")
	}
}

func TestEnterEvaluationModeZeroesTheta(t *testing.T) {
	net := testNet(t, synapse.Stochastic, 5, 4)
	th := net.Exc.Theta()
	th[2] = 7
	tr, _ := New(net, fastOptions())
	tr.EnterEvaluationMode()
	if th[2] != 0 {
		t.Fatal("theta not zeroed")
	}
	if !net.Exc.FreezeTheta {
		t.Fatal("theta not frozen")
	}
}

func TestLabelAssignsClasses(t *testing.T) {
	data := dataset.SynthDigits(30, 9)
	net := testNet(t, synapse.Stochastic, 10, 5)
	tr, _ := New(net, fastOptions())
	if err := tr.Train(data, nil); err != nil {
		t.Fatal(err)
	}
	model, err := tr.Label(dataset.SynthDigits(20, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(model.Assignments) != 10 {
		t.Fatalf("assignments length %d", len(model.Assignments))
	}
	anyAssigned := false
	for _, a := range model.Assignments {
		if a >= 10 {
			t.Fatalf("assignment %d out of range", a)
		}
		if a >= 0 {
			anyAssigned = true
		}
	}
	if !anyAssigned {
		t.Fatal("no neuron was assigned any class")
	}
}

func TestInferReturnsValidClass(t *testing.T) {
	data := dataset.SynthDigits(30, 9)
	net := testNet(t, synapse.Stochastic, 10, 5)
	tr, _ := New(net, fastOptions())
	tr.Train(data, nil)
	model, _ := tr.Label(dataset.SynthDigits(20, 10))
	pred, err := tr.Infer(model, data.Images[0])
	if err != nil {
		t.Fatal(err)
	}
	if pred < -1 || pred >= 10 {
		t.Fatalf("prediction %d out of range", pred)
	}
}

func TestEvaluateProducesConfusion(t *testing.T) {
	data := dataset.SynthDigits(30, 9)
	net := testNet(t, synapse.Stochastic, 10, 5)
	tr, _ := New(net, fastOptions())
	tr.Train(data, nil)
	model, _ := tr.Label(dataset.SynthDigits(20, 10))
	test := dataset.SynthDigits(20, 11)
	conf, err := tr.Evaluate(model, test)
	if err != nil {
		t.Fatal(err)
	}
	if conf.Total() != 20 {
		t.Fatalf("confusion total %d", conf.Total())
	}
}

func TestAssignmentsHelper(t *testing.T) {
	resp := [][]int{
		{0, 5, 2},  // class 1
		{0, 0, 0},  // silent: -1
		{10, 1, 1}, // class 0
	}
	got := Assign(resp)
	want := []int{1, -1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("assignments = %v, want %v", got, want)
		}
	}
}

func TestVoteHelper(t *testing.T) {
	assigned := []int{0, 1, -1, 1}
	spikes := []int{3, 2, 100, 2} // the unassigned neuron's 100 spikes ignored
	if got := Vote(spikes, assigned, 2); got != 1 {
		t.Fatalf("vote = %d, want 1", got)
	}
	if got := Vote([]int{0, 0, 0, 0}, assigned, 2); got != -1 {
		t.Fatalf("silent vote = %d, want -1", got)
	}
}

func TestEndToEndLearnsAboveChance(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end learning test skipped in -short mode")
	}
	// Integration: a small network on the synthetic digit set must land
	// clearly above the 10% chance level for both rules. High-frequency
	// control keeps the test fast (100 ms/image); full-scale accuracy is
	// exercised by the experiment benches.
	trainSet := dataset.SynthDigits(1200, 21)
	testSet := dataset.SynthDigits(160, 22)
	for _, kind := range []synapse.RuleKind{synapse.Deterministic, synapse.Stochastic} {
		// Both rules use the float32 row with the LTP window matched to
		// the 5-78 Hz band (the highfreq preset's slow γ would need far
		// more images than a unit test can afford).
		syn, _, _ := synapse.PresetConfig(synapse.PresetFloat, kind)
		syn.Det.WindowMS = 15 // match the 5-78 Hz band
		syn.Seed = 6
		net, err := network.New(network.DefaultConfig(784, 60, syn))
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Control = encode.HighFrequencyControl()
		res, err := Run(net, opts, trainSet, testSet, 80)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accuracy < 0.16 {
			t.Errorf("%v: end-to-end accuracy %.3f not above chance", kind, res.Accuracy)
		}
		if res.ImagesSeen != 1200 {
			t.Errorf("%v: ImagesSeen %d", kind, res.ImagesSeen)
		}
		if len(res.MovingError) != 1200 {
			t.Errorf("%v: moving curve %d", kind, len(res.MovingError))
		}
	}
}

func TestRunReportsWallClock(t *testing.T) {
	trainSet := dataset.SynthDigits(10, 1)
	testSet := dataset.SynthDigits(10, 2)
	net := testNet(t, synapse.Stochastic, 5, 1)
	res, err := Run(net, fastOptions(), trainSet, testSet, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainWall <= 0 || res.EvalWall <= 0 {
		t.Fatalf("wall clocks: train %v eval %v", res.TrainWall, res.EvalWall)
	}
	if res.Confusion == nil {
		t.Fatal("no confusion matrix")
	}
}

// A trainer restored from a mid-run checkpoint and trained to completion
// must be bit-identical to one that trained straight through: same
// conductances, thetas, clock, counters, and moving error curve.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	ds := dataset.SynthDigits(30, 11)
	opts := fastOptions()
	opts.NumClasses = ds.NumClasses

	full := testNet(t, synapse.Stochastic, 8, 5)
	trFull, err := New(full, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := trFull.Train(ds, nil); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: capture state at image 13, "crash", resume.
	crashed := testNet(t, synapse.Stochastic, 8, 5)
	trA, err := New(crashed, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := trA.Train(ds.Subset(0, 13), nil); err != nil {
		t.Fatal(err)
	}
	state := trA.CheckpointState()
	gAtCkpt := crashed.Syn.Weights()
	thetaAtCkpt := append([]float64(nil), crashed.Exc.Theta()...)

	resumed := testNet(t, synapse.Stochastic, 8, 5)
	trB, err := New(resumed, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range gAtCkpt {
		resumed.Syn.SetWeight(i/resumed.Syn.NPost, i%resumed.Syn.NPost, w)
	}
	copy(resumed.Exc.Theta(), thetaAtCkpt)
	if err := trB.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	if trB.ImagesSeen != 13 {
		t.Fatalf("restored ImagesSeen %d", trB.ImagesSeen)
	}
	if err := trB.Train(ds, nil); err != nil {
		t.Fatal(err)
	}

	if resumed.Step() != full.Step() {
		t.Fatalf("step diverged: %d vs %d", resumed.Step(), full.Step())
	}
	wf, wr := full.Syn.Weights(), resumed.Syn.Weights()
	for i := range wf {
		if wf[i] != wr[i] {
			t.Fatalf("conductance %d diverged: %v vs %v", i, wf[i], wr[i])
		}
	}
	for i, th := range full.Exc.Theta() {
		if resumed.Exc.Theta()[i] != th {
			t.Fatalf("theta %d diverged", i)
		}
	}
	fc, rc := trFull.MovingErrorCurve(), trB.MovingErrorCurve()
	if len(fc) != len(rc) {
		t.Fatalf("curve length %d vs %d", len(fc), len(rc))
	}
	for i := range fc {
		if fc[i] != rc[i] {
			t.Fatalf("moving error curve diverged at %d", i)
		}
	}
	if trFull.BoostCount != trB.BoostCount {
		t.Fatalf("boost count %d vs %d", trFull.BoostCount, trB.BoostCount)
	}
}

func TestRestoreStateValidation(t *testing.T) {
	net := testNet(t, synapse.Stochastic, 4, 9)
	tr, err := New(net, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	good := tr.CheckpointState()
	if err := tr.RestoreState(good); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	if err := tr.RestoreState(nil); err == nil {
		t.Error("nil state accepted")
	}
	corrupt := func(mutate func(*TrainerState)) *TrainerState {
		s := tr.CheckpointState()
		mutate(s)
		return s
	}
	cases := map[string]*TrainerState{
		"seed":        corrupt(func(s *TrainerState) { s.Seed++ }),
		"classes":     corrupt(func(s *TrainerState) { s.NumClasses = 3 }),
		"neg images":  corrupt(func(s *TrainerState) { s.ImagesSeen = -1 }),
		"resp rows":   corrupt(func(s *TrainerState) { s.Resp = s.Resp[:2] }),
		"resp cols":   corrupt(func(s *TrainerState) { s.Resp[1] = s.Resp[1][:3] }),
		"spikecounts": corrupt(func(s *TrainerState) { s.SpikeCounts = nil }),
		"moving":      corrupt(func(s *TrainerState) { s.Moving.Idx = 99 }),
	}
	for name, s := range cases {
		if err := tr.RestoreState(s); err == nil {
			t.Errorf("%s: corrupt state accepted", name)
		}
	}
}

func TestCheckpointStateIsDeepCopy(t *testing.T) {
	net := testNet(t, synapse.Stochastic, 4, 9)
	tr, err := New(net, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := tr.CheckpointState()
	s.Resp[0][0] = 777
	s.SpikeCounts[0] = 777
	if tr.resp[0][0] == 777 {
		t.Error("Resp shares memory with trainer")
	}
	if net.Exc.SpikeCounts()[0] == 777 {
		t.Error("SpikeCounts shares memory with network")
	}
}

// Train must honor the periodic checkpoint hook and the interrupt poll,
// flushing once more before returning ErrInterrupted.
func TestTrainCheckpointHookAndInterrupt(t *testing.T) {
	ds := dataset.SynthDigits(12, 3)
	net := testNet(t, synapse.Stochastic, 4, 2)
	opts := fastOptions()
	opts.NumClasses = ds.NumClasses
	tr, err := New(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	var flushedAt []int
	tr.CheckpointEvery = 3
	tr.Checkpoint = func() error {
		flushedAt = append(flushedAt, tr.ImagesSeen)
		return nil
	}
	tr.Interrupted = func() bool { return tr.ImagesSeen == 8 }

	err = tr.Train(ds, nil)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("Train err = %v, want ErrInterrupted", err)
	}
	want := []int{3, 6, 8} // two periodic flushes + final flush at interrupt
	if len(flushedAt) != len(want) {
		t.Fatalf("flushes at %v, want %v", flushedAt, want)
	}
	for i := range want {
		if flushedAt[i] != want[i] {
			t.Fatalf("flushes at %v, want %v", flushedAt, want)
		}
	}
	// Resuming after the interruption finishes the data set.
	tr.Interrupted = nil
	if err := tr.Train(ds, nil); err != nil {
		t.Fatal(err)
	}
	if tr.ImagesSeen != 12 {
		t.Fatalf("ImagesSeen %d after resume", tr.ImagesSeen)
	}
}

func TestTrainPropagatesCheckpointError(t *testing.T) {
	ds := dataset.SynthDigits(4, 3)
	net := testNet(t, synapse.Stochastic, 4, 2)
	opts := fastOptions()
	opts.NumClasses = ds.NumClasses
	tr, err := New(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk gone")
	tr.CheckpointEvery = 2
	tr.Checkpoint = func() error { return boom }
	if err := tr.Train(ds, nil); !errors.Is(err, boom) {
		t.Fatalf("Train err = %v, want wrapped %v", err, boom)
	}
}
