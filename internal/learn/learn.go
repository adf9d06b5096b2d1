// Package learn implements the paper's unsupervised learning pipeline
// (Fig 2, §III-B): train on the full training set with STDP, label the
// first-layer neurons using the first part of the test set (the paper uses
// the first 1 000 test images), then infer on the remainder by spike-count
// voting.
//
// Two liveness/readout mechanisms from the baseline lineage (Diehl & Cook
// 2015, which the paper reproduces as its deterministic anchor, §IV-A) are
// included:
//
//   - adaptive boost: if a presentation elicits fewer than BoostMinSpikes
//     first-layer spikes, it is repeated with the input band scaled up, so
//     sparse images still drive learning and evaluation;
//   - evaluation mode: during labeling and inference the homeostatic
//     thresholds are zeroed and frozen, so the winner-take-all competition
//     ranks neurons purely by learned receptive-field match.
package learn

import (
	"errors"
	"fmt"
	"time"

	"parallelspikesim/internal/check"
	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/obs"
	"parallelspikesim/internal/stats"
)

// ErrInterrupted is returned by Train when the Interrupted callback asked
// training to stop. The trainer is left at an image boundary with a final
// checkpoint flushed (when a Checkpoint hook is installed), so the run can
// be resumed later with RestoreState + Train.
var ErrInterrupted = errors.New("learn: training interrupted")

// Options configures the pipeline.
type Options struct {
	Control encode.Control // input band + presentation time

	// NumClasses is the label arity of the data. 0 selects 10, the MNIST
	// family's arity.
	NumClasses int

	// Adaptive boost (0 disables): re-present with Band × BoostFactor
	// until at least BoostMinSpikes first-layer spikes occur, at most
	// MaxBoosts times.
	BoostMinSpikes int
	BoostFactor    float64
	MaxBoosts      int

	// MovingWindow is the window (in images) of the training-time moving
	// error rate (Fig 8c).
	MovingWindow int
}

// DefaultOptions returns the baseline operating point.
func DefaultOptions() Options {
	return Options{
		Control:        encode.BaselineControl(),
		BoostMinSpikes: 5,
		BoostFactor:    1.6,
		MaxBoosts:      4,
		MovingWindow:   100,
	}
}

// classes resolves the NumClasses default.
func (o Options) classes() int {
	if o.NumClasses == 0 {
		return 10
	}
	return o.NumClasses
}

// Validate checks the options.
func (o Options) Validate() error {
	if err := o.Control.Validate(); err != nil {
		return err
	}
	if o.NumClasses < 0 {
		return fmt.Errorf("learn: NumClasses %d", o.NumClasses)
	}
	if o.BoostMinSpikes > 0 && (o.BoostFactor <= 1 || o.MaxBoosts <= 0) {
		return fmt.Errorf("learn: boost needs factor > 1 and MaxBoosts > 0")
	}
	if o.MovingWindow <= 0 {
		return fmt.Errorf("learn: MovingWindow %d", o.MovingWindow)
	}
	return nil
}

// Trainer drives the unsupervised learning pipeline over a network.
type Trainer struct {
	Net  *network.Network
	Opts Options

	numClasses int
	resp       [][]int // training-time response counts [neuron][class]
	moving     *stats.MovingError

	// Observability (from the network's registry); nil handles no-op.
	reg        *obs.Registry
	obsPresent *obs.Timer   // per-image presentation time, boosts included
	obsCkpt    *obs.Timer   // checkpoint-hook latency
	obsImages  *obs.Counter // training presentations (excluding boosts)
	obsBoosts  *obs.Counter // boost re-presentations
	obsCkptN   *obs.Counter // checkpoints flushed

	// ImagesSeen counts training presentations (excluding boost repeats).
	ImagesSeen int
	// BoostCount counts boost re-presentations performed.
	BoostCount int

	// Checkpoint, when non-nil, is called by Train at image boundaries:
	// after every CheckpointEvery images, and once more before Train
	// returns ErrInterrupted. An error from the hook aborts training.
	Checkpoint func() error
	// CheckpointEvery is the periodic checkpoint interval in images;
	// <= 0 flushes only on interruption.
	CheckpointEvery int
	// Interrupted, when non-nil, is polled after every training image;
	// returning true makes Train flush a final checkpoint and return
	// ErrInterrupted. This is how a SIGINT handler stops a run cleanly
	// at an image boundary.
	Interrupted func() bool
}

// New binds a network to pipeline options. The label arity comes from
// Options.NumClasses (0 = 10, the MNIST family). When the network carries
// an observability registry (network.WithObserver), the trainer registers
// its own metrics against it: learn_present_ns, learn_checkpoint_ns,
// learn_images_total, learn_boosts_total and learn_checkpoints_total.
func New(net *network.Network, opts Options) (*Trainer, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	numClasses := opts.classes()
	mv, err := stats.NewMovingError(opts.MovingWindow)
	if err != nil {
		return nil, err
	}
	resp := make([][]int, net.Cfg.NumNeurons)
	for i := range resp {
		resp[i] = make([]int, numClasses)
	}
	reg := net.Observer()
	return &Trainer{
		Net:        net,
		Opts:       opts,
		numClasses: numClasses,
		resp:       resp,
		moving:     mv,
		reg:        reg,
		obsPresent: reg.Timer("learn_present_ns"),
		obsCkpt:    reg.Timer("learn_checkpoint_ns"),
		obsImages:  reg.Counter("learn_images_total"),
		obsBoosts:  reg.Counter("learn_boosts_total"),
		obsCkptN:   reg.Counter("learn_checkpoints_total"),
	}, nil
}

// present shows one image with adaptive boost. The learn_present_ns timer
// covers the whole presentation including boost re-presentations, so its
// histogram is the per-image serving latency.
func (t *Trainer) present(img []uint8, learning bool) (network.PresentResult, error) {
	start := t.obsPresent.Start()
	defer t.obsPresent.Stop(start)
	res, err := t.Net.Present(img, t.Opts.Control, learning, nil)
	if err != nil {
		return res, err
	}
	if t.Opts.BoostMinSpikes <= 0 {
		return res, nil
	}
	boosted := t.Opts.Control
	for tries := 0; tries < t.Opts.MaxBoosts && res.TotalSpikes() < t.Opts.BoostMinSpikes; tries++ {
		boosted.Band.MinHz *= t.Opts.BoostFactor
		boosted.Band.MaxHz *= t.Opts.BoostFactor
		t.BoostCount++
		t.obsBoosts.Inc()
		if res, err = t.Net.Present(img, boosted, learning, nil); err != nil {
			return res, err
		}
	}
	return res, nil
}

// TrainImage presents one labeled training image with learning enabled and
// updates the moving error rate: the image is "predicted" with the current
// provisional neuron assignments before its own response is added.
func (t *Trainer) TrainImage(img []uint8, label uint8) (network.PresentResult, error) {
	if int(label) >= t.numClasses {
		return network.PresentResult{}, fmt.Errorf("learn: label %d out of range", label)
	}
	res, err := t.present(img, true)
	if err != nil {
		return res, err
	}
	pred := t.predict(res.SpikeCounts)
	t.moving.Observe(pred != int(label))
	for n, c := range res.SpikeCounts {
		t.resp[n][label] += c
	}
	t.ImagesSeen++
	t.obsImages.Inc()
	return res, nil
}

// Train runs TrainImage over the data set, starting at image ImagesSeen —
// 0 for a fresh trainer, or the next untrained image after RestoreState,
// so resuming from a checkpoint is just calling Train again with the same
// data set. progress (optional) is called after every image with the index
// and current moving error rate. When a Checkpoint hook is installed it
// fires every CheckpointEvery images; when Interrupted reports true, Train
// flushes a final checkpoint and returns ErrInterrupted.
func (t *Trainer) Train(ds *dataset.Dataset, progress func(i int, movingError float64)) error {
	lastCkptImages := t.ImagesSeen // consumed only under -tags simcheck
	for i := t.ImagesSeen; i < ds.Len(); i++ {
		if _, err := t.TrainImage(ds.Images[i], ds.Labels[i]); err != nil {
			return fmt.Errorf("learn: training image %d: %w", i, err)
		}
		if progress != nil {
			progress(i, t.moving.Rate())
		}
		stop := t.Interrupted != nil && t.Interrupted()
		periodic := t.CheckpointEvery > 0 && (i+1)%t.CheckpointEvery == 0
		if t.Checkpoint != nil && (periodic || stop) {
			ck := t.obsCkpt.Start()
			err := t.Checkpoint()
			t.obsCkpt.Stop(ck)
			if err != nil {
				return fmt.Errorf("learn: checkpoint after image %d: %w", i, err)
			}
			t.obsCkptN.Inc()
			if check.Enabled {
				// Every checkpoint must cover strictly more images than the
				// previous one, or a crash/resume cycle could silently lose
				// (or re-train) work.
				check.CounterAdvance("learn: checkpoint image counter", lastCkptImages, t.ImagesSeen)
				lastCkptImages = t.ImagesSeen
			}
		}
		if stop {
			return ErrInterrupted
		}
	}
	return nil
}

// predict votes with the current training-time response counts.
func (t *Trainer) predict(spikes []int) int {
	return Vote(spikes, Assign(t.resp), t.numClasses)
}

// Assignments votes the current training-time response counts into the
// neuron→class label table Label would produce from the traffic trained on
// so far — the readout the continual trainer freezes into each candidate
// checkpoint. Unlike Label it does not present anything or switch the
// network into evaluation mode, so training continues unaffected.
func (t *Trainer) Assignments() []int { return Assign(t.resp) }

// MovingError returns the current training moving error rate.
func (t *Trainer) MovingError() float64 { return t.moving.Rate() }

// MovingErrorCurve returns the moving error after each training image
// (Fig 8c).
func (t *Trainer) MovingErrorCurve() []float64 { return t.moving.Curve() }

// TrainerState is the complete training-progress state of a Trainer at an
// image boundary: everything beyond the network's conductances and
// thresholds (which netio.Snapshot already carries) that an interrupted run
// needs in order to resume bit-identically. Because every stochastic draw
// in the simulator is counter-based, restoring the network clock (NetStep,
// NetNow) restores the random sequence itself; Streams additionally carries
// the state of any stateful rng.Stream a component may hold (none in the
// current pipeline — the field keeps the checkpoint format stable if one
// appears).
type TrainerState struct {
	Seed       uint64 // network master seed; guards against resuming under different flags
	NumClasses int
	ImagesSeen int
	BoostCount int

	Resp   [][]int // training-time response counts [neuron][class]
	Moving stats.MovingErrorState

	NetStep uint64
	NetNow  float64

	TotalInputSpikes uint64
	TotalExcSpikes   uint64
	TotalInhEvents   uint64
	SpikeCounts      []uint64 // cumulative per-neuron spike counters

	Streams [][4]uint64 // checkpointed rng.Stream states (reserved)

	// Metrics carries the observability registry's cumulative counters at
	// checkpoint time, so totals like network_exc_spikes_total survive a
	// crash/resume cycle. Timer histograms are wall-clock observations of
	// the dead process and are deliberately not resurrected. Empty when
	// the run is unobserved.
	Metrics []obs.CounterValue
}

// CheckpointState deep-copies the trainer's progress at the current image
// boundary. Call it between TrainImage calls (the Checkpoint hook runs
// there); the result is stable against further training.
func (t *Trainer) CheckpointState() *TrainerState {
	resp := make([][]int, len(t.resp))
	for i := range t.resp {
		resp[i] = append([]int(nil), t.resp[i]...)
	}
	return &TrainerState{
		Seed:             t.Net.Cfg.Seed,
		NumClasses:       t.numClasses,
		ImagesSeen:       t.ImagesSeen,
		BoostCount:       t.BoostCount,
		Resp:             resp,
		Moving:           t.moving.State(),
		NetStep:          t.Net.Step(),
		NetNow:           t.Net.Now(),
		TotalInputSpikes: t.Net.TotalInputSpikes,
		TotalExcSpikes:   t.Net.TotalExcSpikes,
		TotalInhEvents:   t.Net.TotalInhEvents,
		SpikeCounts:      append([]uint64(nil), t.Net.Exc.SpikeCounts()...),
		Metrics:          t.reg.Snapshot().Counters,
	}
}

// RestoreState loads a checkpointed training progress into the trainer and
// its network, validating the state against the trainer's configuration.
// The caller must separately restore the conductances and thresholds (the
// netio.Snapshot payload); afterwards Train(ds, …) continues from image
// ImagesSeen and is bit-identical to a run that was never interrupted.
func (t *Trainer) RestoreState(s *TrainerState) error {
	if s == nil {
		return errors.New("learn: nil trainer state")
	}
	n := t.Net.Cfg.NumNeurons
	switch {
	case s.Seed != t.Net.Cfg.Seed:
		return fmt.Errorf("learn: checkpoint seed %d, run seed %d — resume must use the original configuration", s.Seed, t.Net.Cfg.Seed)
	case s.NumClasses != t.numClasses:
		return fmt.Errorf("learn: checkpoint has %d classes, trainer %d", s.NumClasses, t.numClasses)
	case s.ImagesSeen < 0 || s.BoostCount < 0:
		return fmt.Errorf("learn: negative progress counters (%d images, %d boosts)", s.ImagesSeen, s.BoostCount)
	case len(s.Resp) != n:
		return fmt.Errorf("learn: checkpoint responses for %d neurons, network has %d", len(s.Resp), n)
	case len(s.SpikeCounts) != n:
		return fmt.Errorf("learn: checkpoint spike counts for %d neurons, network has %d", len(s.SpikeCounts), n)
	}
	for i, row := range s.Resp {
		if len(row) != s.NumClasses {
			return fmt.Errorf("learn: response row %d has %d classes, want %d", i, len(row), s.NumClasses)
		}
	}
	mv, err := stats.NewMovingErrorFromState(s.Moving)
	if err != nil {
		return err
	}
	resp := make([][]int, n)
	for i := range s.Resp {
		resp[i] = append([]int(nil), s.Resp[i]...)
	}
	t.resp = resp
	t.moving = mv
	t.ImagesSeen = s.ImagesSeen
	t.BoostCount = s.BoostCount
	t.Net.SetClock(s.NetStep, s.NetNow)
	t.Net.TotalInputSpikes = s.TotalInputSpikes
	t.Net.TotalExcSpikes = s.TotalExcSpikes
	t.Net.TotalInhEvents = s.TotalInhEvents
	copy(t.Net.Exc.SpikeCounts(), s.SpikeCounts)
	// Resurrect cumulative metric totals into the live registry (no-op for
	// unobserved runs). Interned handles keep accumulating on top.
	for _, m := range s.Metrics {
		t.reg.SetCounter(m.Name, m.Value)
	}
	return nil
}

// Model is the labeled readout: one class per neuron (-1 if the neuron
// never responded during labeling).
type Model struct {
	Assignments []int
	Responses   [][]int
	NumClasses  int
}

// EnterEvaluationMode freezes and zeroes the homeostatic thresholds so the
// WTA competition ranks neurons purely by receptive-field match. Training
// must be complete; further TrainImage calls after this are invalid.
func (t *Trainer) EnterEvaluationMode() {
	th := t.Net.Exc.Theta()
	for i := range th {
		th[i] = 0
	}
	t.Net.Exc.FreezeTheta = true
}

// Label presents the labeling subset (no learning) and assigns each neuron
// the class it responded to most — the paper's procedure with the first
// 1 000 test images. It switches the network into evaluation mode.
func (t *Trainer) Label(ds *dataset.Dataset) (*Model, error) {
	t.EnterEvaluationMode()
	resp := make([][]int, t.Net.Cfg.NumNeurons)
	for i := range resp {
		resp[i] = make([]int, t.numClasses)
	}
	for i := 0; i < ds.Len(); i++ {
		res, err := t.present(ds.Images[i], false)
		if err != nil {
			return nil, fmt.Errorf("learn: labeling image %d: %w", i, err)
		}
		for n, c := range res.SpikeCounts {
			resp[n][ds.Labels[i]] += c
		}
	}
	return &Model{
		Assignments: Assign(resp),
		Responses:   resp,
		NumClasses:  t.numClasses,
	}, nil
}

// Infer classifies one image with a labeled model: spike counts vote for
// their neuron's assigned class. Returns -1 when no assigned neuron spiked.
func (t *Trainer) Infer(m *Model, img []uint8) (int, error) {
	res, err := t.present(img, false)
	if err != nil {
		return -1, err
	}
	return Vote(res.SpikeCounts, m.Assignments, m.NumClasses), nil
}

// Evaluate runs inference over a data set and returns the confusion matrix.
func (t *Trainer) Evaluate(m *Model, ds *dataset.Dataset) (*stats.Confusion, error) {
	conf, err := stats.NewConfusion(t.numClasses)
	if err != nil {
		return nil, err
	}
	for i := 0; i < ds.Len(); i++ {
		pred, err := t.Infer(m, ds.Images[i])
		if err != nil {
			return nil, fmt.Errorf("learn: inference image %d: %w", i, err)
		}
		conf.Add(int(ds.Labels[i]), pred)
	}
	return conf, nil
}

// Assign maps each neuron's per-class response tally to its strongest
// class. A neuron that never responded (all-zero row) stays unassigned
// (-1); ties break toward the lowest class index. This is the labeling rule
// of the paper's readout, shared verbatim by the trainer's provisional
// predictions, Label, and the frozen-weight inference engine
// (internal/infer), so a served model can never label differently than the
// pipeline that trained it.
func Assign(resp [][]int) []int {
	out := make([]int, len(resp))
	for n := range resp {
		best, bc := -1, 0
		for class, c := range resp[n] {
			if c > bc {
				best, bc = class, c
			}
		}
		out[n] = best
	}
	return out
}

// VoteCounts sums spike counts into per-class votes under a neuron→class
// assignment. Unassigned neurons (-1) do not vote; assignments at or above
// numClasses would corrupt memory and must be rejected by the caller
// (netio.Snapshot.ValidateInference does this for loaded models).
func VoteCounts(spikes, assigned []int, numClasses int) []int {
	votes := make([]int, numClasses)
	for n, c := range spikes {
		if a := assigned[n]; a >= 0 {
			votes[a] += c
		}
	}
	return votes
}

// Vote returns the class with the most votes, -1 when every vote is zero
// (no assigned neuron spiked); ties break toward the lowest class index.
// Training-time prediction, Trainer.Infer and internal/infer all classify
// through this one tally.
func Vote(spikes, assigned []int, numClasses int) int {
	best, bc := -1, 0
	for class, v := range VoteCounts(spikes, assigned, numClasses) {
		if v > bc {
			best, bc = class, v
		}
	}
	return best
}

// Classifier is the frozen-weight serving interface: classify one image,
// returning its predicted class (-1 = unclassifiable). internal/infer's
// Engine implements it; learn cannot import infer (netio sits between
// them), so the evaluation helper is written against this interface.
type Classifier interface {
	Classify(img []uint8) (int, error)
}

// BatchClassifier is the optional bulk upgrade of Classifier: classify many
// images in one call (internal/infer fans the batch out over its engine
// worker pool).
type BatchClassifier interface {
	ClassifyBatch(imgs [][]uint8) ([]int, error)
}

// EvaluateClassifier runs a frozen-weight classifier over a held-out data
// set and returns the confusion matrix — the same code path psserve answers
// queries with, so the accuracy pssim reports is the accuracy the served
// model will deliver. When the classifier also implements BatchClassifier
// the whole set is classified in one batched call.
func EvaluateClassifier(c Classifier, ds *dataset.Dataset, numClasses int) (*stats.Confusion, error) {
	conf, err := stats.NewConfusion(numClasses)
	if err != nil {
		return nil, err
	}
	if bc, ok := c.(BatchClassifier); ok {
		preds, err := bc.ClassifyBatch(ds.Images)
		if err != nil {
			return nil, fmt.Errorf("learn: batched evaluation: %w", err)
		}
		if len(preds) != ds.Len() {
			return nil, fmt.Errorf("learn: batched evaluation returned %d predictions for %d images", len(preds), ds.Len())
		}
		for i, pred := range preds {
			conf.Add(int(ds.Labels[i]), pred)
		}
		return conf, nil
	}
	for i := 0; i < ds.Len(); i++ {
		pred, err := c.Classify(ds.Images[i])
		if err != nil {
			return nil, fmt.Errorf("learn: evaluating image %d: %w", i, err)
		}
		conf.Add(int(ds.Labels[i]), pred)
	}
	return conf, nil
}

// Result summarizes a full pipeline run.
type Result struct {
	Accuracy    float64
	Confusion   *stats.Confusion
	MovingError []float64
	TrainWall   time.Duration
	EvalWall    time.Duration
	ImagesSeen  int
	BoostCount  int
}

// Run executes the complete pipeline: train on trainSet, label with the
// first labelCount images of testSet, infer on the rest.
func Run(net *network.Network, opts Options, trainSet, testSet *dataset.Dataset, labelCount int) (*Result, error) {
	opts.NumClasses = trainSet.NumClasses
	tr, err := New(net, opts)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := tr.Train(trainSet, nil); err != nil {
		return nil, err
	}
	trainWall := time.Since(start)

	labelSet, inferSet := testSet.LabelInferSplit(labelCount)
	start = time.Now()
	model, err := tr.Label(labelSet)
	if err != nil {
		return nil, err
	}
	conf, err := tr.Evaluate(model, inferSet)
	if err != nil {
		return nil, err
	}
	return &Result{
		Accuracy:    conf.Accuracy(),
		Confusion:   conf,
		MovingError: tr.MovingErrorCurve(),
		TrainWall:   trainWall,
		EvalWall:    time.Since(start),
		ImagesSeen:  tr.ImagesSeen,
		BoostCount:  tr.BoostCount,
	}, nil
}
