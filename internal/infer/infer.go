// Package infer runs frozen-weight inference: the plasticity-free forward
// pass of a trained ParallelSpikeSim network, bit-identical in spike output
// to network.Present with updates disabled.
//
// The training path (network.Network) owns a mutable conductance matrix and
// is single-goroutine by design. Serving has the opposite shape: the weights
// never change, but many images must be classified concurrently. Engine
// therefore takes one immutable copy of the trained state (conductances,
// homeostatic thresholds, label assignments — typically loaded from a PSS2
// snapshot via netio.LoadInferenceFile) and keeps all per-presentation state
// in a sync.Pool of step cores, so Forward is safe to call from any
// number of goroutines and allocation-free once the pool is warm.
//
// Bit-identity with the trainer's evaluation path is structural: Forward
// encodes and steps through the training path's own network.Core with no
// learning hook. The core derives the input-stream seed and keys the spikes
// by the start step it is given, so a Forward at start step S replays the
// spikes Present would have generated with its global step counter at S.
// Absolute simulation time never enters the output: every timer
// (refractory, inhibition) is relative to the presentation start, so the
// bare core runs its clock from zero regardless of start step.
//
// The differential wall in infer_test.go and the golden inference digests in
// internal/golden pin this equivalence across every preset, quantization
// format and rounding mode, and at fractional step widths.
package infer

import (
	"fmt"
	"sync"

	"parallelspikesim/internal/check"
	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/engine"
	"parallelspikesim/internal/fixed"
	"parallelspikesim/internal/learn"
	"parallelspikesim/internal/netio"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/neuron"
	"parallelspikesim/internal/obs"
	"parallelspikesim/internal/synapse"
)

// Params is the frozen state an Engine serves. All slices are copied by New;
// the caller keeps ownership of its own.
type Params struct {
	Net     network.Config // geometry, electrical constants, seed, train kind
	Control encode.Control // input band and presentation time

	G           []float64 // trained conductances, pre-major
	Theta       []float64 // trained homeostatic threshold offsets
	Assignments []int     // neuron → class labeling (-1 = unassigned)
	NumClasses  int
}

// Option customizes an Engine at construction time.
type Option func(*buildOptions)

type buildOptions struct {
	exec engine.Executor
	reg  *obs.Registry
}

// WithExecutor fans ClassifyBatch/PredictBatch out over exec, one image per
// unit of work. The caller retains ownership (and Close responsibility) of
// the executor; the default is sequential execution. Single-image calls
// never touch the executor.
func WithExecutor(exec engine.Executor) Option {
	return func(o *buildOptions) { o.exec = exec }
}

// WithObserver attaches an observability registry: forward-pass latency
// (infer_forward_ns) plus request and image counters (infer_requests_total,
// infer_images_total). A nil registry (the default) keeps inference
// allocation- and syscall-free.
func WithObserver(reg *obs.Registry) Option {
	return func(o *buildOptions) { o.reg = reg }
}

// Engine classifies images against an immutable trained model. Safe for
// concurrent use by multiple goroutines.
type Engine struct {
	cfg    network.Config
	ctl    encode.Control
	syn    *synapse.Matrix // frozen after construction
	theta  []float64       // frozen after construction
	assign []int           // frozen after construction
	nClass int
	steps  int // simulation steps per presentation

	exec  engine.Executor
	cores sync.Pool // *network.Core, one per concurrent Forward

	obsForward  *obs.Timer
	obsRequests *obs.Counter
	obsImages   *obs.Counter
}

// New builds an inference engine over a copy of the frozen state in p.
func New(p Params, opts ...Option) (*Engine, error) {
	if err := p.Net.Validate(); err != nil {
		return nil, err
	}
	if err := p.Control.Validate(); err != nil {
		return nil, err
	}
	// The semantic checks are exactly the ones a loaded snapshot must pass,
	// so directly constructed params go through the same gate.
	view := &netio.Snapshot{
		NumInputs:   p.Net.NumInputs,
		NumNeurons:  p.Net.NumNeurons,
		Format:      p.Net.Syn.Format,
		G:           p.G,
		Theta:       p.Theta,
		Assignments: p.Assignments,
	}
	if err := view.ValidateInference(p.NumClasses); err != nil {
		return nil, err
	}
	steps, err := network.PresentationSteps(p.Control, p.Net.DTms)
	if err != nil {
		return nil, err
	}
	mat, err := synapse.NewMatrix(p.Net.NumInputs, p.Net.NumNeurons, p.Net.Syn.Format)
	if err != nil {
		return nil, err
	}
	for i, g := range p.G {
		if check.Enabled {
			check.Conductance("infer: frozen matrix", g, p.Net.Syn.Format, 0, p.Net.Syn.Format.Max())
		}
		mat.SetWeight(i/p.Net.NumNeurons, i%p.Net.NumNeurons, fixed.Weight(g))
	}
	var bo buildOptions
	for _, opt := range opts {
		if opt != nil {
			opt(&bo)
		}
	}
	exec := bo.exec
	if exec == nil {
		exec = engine.New(1)
	}
	e := &Engine{
		cfg:    p.Net,
		ctl:    p.Control,
		syn:    mat,
		theta:  append([]float64(nil), p.Theta...),
		assign: append([]int(nil), p.Assignments...),
		nClass: p.NumClasses,
		steps:  steps,
		exec:   exec,

		// All handles are nil (free no-ops) when bo.reg is nil.
		obsForward:  bo.reg.Timer("infer_forward_ns"),
		obsRequests: bo.reg.Counter("infer_requests_total"),
		obsImages:   bo.reg.Counter("infer_images_total"),
	}
	e.cores.New = func() any { return e.newCore() }
	return e, nil
}

// FromSnapshot builds an engine from a loaded PSS2 snapshot. The network
// config supplies the electrical constants the snapshot does not carry; its
// geometry and quantization format must match the snapshot's.
func FromSnapshot(s *netio.Snapshot, cfg network.Config, ctl encode.Control, numClasses int, opts ...Option) (*Engine, error) {
	if cfg.NumInputs != s.NumInputs || cfg.NumNeurons != s.NumNeurons {
		return nil, fmt.Errorf("infer: geometry mismatch: snapshot %d×%d, config %d×%d",
			s.NumInputs, s.NumNeurons, cfg.NumInputs, cfg.NumNeurons)
	}
	if cfg.Syn.Format != s.Format {
		return nil, fmt.Errorf("infer: format mismatch: snapshot %s, config %s", s.Format, cfg.Syn.Format)
	}
	return New(Params{
		Net:         cfg,
		Control:     ctl,
		G:           s.G,
		Theta:       s.Theta,
		Assignments: s.Assignments,
		NumClasses:  numClasses,
	}, opts...)
}

// NumInputs returns the expected image size in pixels.
func (e *Engine) NumInputs() int { return e.cfg.NumInputs }

// NumNeurons returns the first-layer population size.
func (e *Engine) NumNeurons() int { return e.cfg.NumNeurons }

// NumClasses returns the class arity of the vote.
func (e *Engine) NumClasses() int { return e.nClass }

// StepsPerImage returns the simulation steps one presentation runs — the
// stride ClassifyBatch advances the start step by between images.
func (e *Engine) StepsPerImage() int { return e.steps }

// newCore builds the per-presentation mutable state: a step core over a
// private population and the frozen matrix. One core serves one Forward
// call at a time; the pool recycles them across calls and goroutines.
func (e *Engine) newCore() *network.Core {
	// Population construction cannot fail here: cfg was validated in New.
	pop, err := neuron.NewPopulation(e.cfg.NumNeurons, e.cfg.LIF)
	if err != nil {
		panic(fmt.Sprintf("infer: scratch population: %v", err))
	}
	// Thresholds are frozen for the engine's lifetime: with FreezeTheta set,
	// neither integration (no decay) nor Fire (no bump) moves them, so one
	// copy at scratch birth holds for every presentation it serves.
	pop.FreezeTheta = true
	copy(pop.Theta(), e.theta)
	return network.NewCore(e.cfg, pop, e.syn)
}

// Forward presents one image to the frozen network and returns the spike
// summary, bit-identical to network.Present(img, ctl, false, nil) on a
// network holding the same weights with its step counter at startStep.
func (e *Engine) Forward(img []uint8, startStep uint64) (network.PresentResult, error) {
	if len(img) != e.cfg.NumInputs {
		return network.PresentResult{}, fmt.Errorf("infer: image has %d pixels, model expects %d", len(img), e.cfg.NumInputs)
	}
	t := e.obsForward.Start()
	core := e.cores.Get().(*network.Core)
	res, err := e.forward(core, img, startStep)
	e.cores.Put(core)
	e.obsForward.Stop(t)
	e.obsImages.Inc()
	return res, err
}

func (e *Engine) forward(core *network.Core, img []uint8, startStep uint64) (network.PresentResult, error) {
	if _, err := core.Encode(img, e.ctl, startStep); err != nil {
		return network.PresentResult{}, err
	}
	pop := core.Pop
	pop.ClearSpikeCounts()
	res := network.PresentResult{Steps: e.steps, InputSpikes: core.Run()}
	res.SpikeCounts = make([]int, e.cfg.NumNeurons)
	for i, c := range pop.SpikeCounts() {
		res.SpikeCounts[i] = int(c)
	}
	if check.Enabled {
		// The engine's thresholds are frozen; a drifted scratch copy would
		// silently desynchronize inference from the trained model.
		for i, th := range pop.Theta() {
			check.Assert(th == e.theta[i],
				"infer: scratch theta %d drifted from frozen value (%v != %v)", i, th, e.theta[i])
		}
	}
	return res, nil
}

// Prediction is the classification outcome for one image.
type Prediction struct {
	// Class is the voted class, or -1 when no labeled neuron spiked.
	Class int `json:"class"`
	// Winner is the most active neuron, or -1 when the layer stayed silent.
	Winner int `json:"winner"`
	// Spikes is the total first-layer spike count of the presentation.
	Spikes int `json:"spikes"`
	// Votes is the per-class spike tally behind Class.
	Votes []int `json:"votes"`
}

// Predict classifies one image presented at the given start step.
func (e *Engine) Predict(img []uint8, startStep uint64) (Prediction, error) {
	res, err := e.Forward(img, startStep)
	if err != nil {
		return Prediction{}, err
	}
	winner, _ := res.Winner()
	return Prediction{
		Class:  learn.Vote(res.SpikeCounts, e.assign, e.nClass),
		Winner: winner,
		Spikes: res.TotalSpikes(),
		Votes:  learn.VoteCounts(res.SpikeCounts, e.assign, e.nClass),
	}, nil
}

// Classify classifies one image at start step 0 — the deterministic
// stateless form serving uses, implementing learn.Classifier. Two requests
// with the same pixels always get the same answer.
func (e *Engine) Classify(img []uint8) (int, error) {
	p, err := e.Predict(img, 0)
	if err != nil {
		return -1, err
	}
	e.obsRequests.Inc()
	return p.Class, nil
}

// PredictBatch classifies a batch, fanning images out over the engine's
// executor. Image i is presented at start step i·StepsPerImage(), mirroring
// the step schedule of a sequential evaluation pass that starts from a fresh
// clock, so results depend only on batch content and order — never on
// worker count or scheduling.
func (e *Engine) PredictBatch(imgs [][]uint8) ([]Prediction, error) {
	preds := make([]Prediction, len(imgs))
	errs := make([]error, e.exec.Workers())
	e.exec.For(len(imgs), func(chunk, lo, hi int) {
		for i := lo; i < hi; i++ {
			p, err := e.Predict(imgs[i], uint64(i)*uint64(e.steps))
			if err != nil {
				if errs[chunk] == nil {
					errs[chunk] = fmt.Errorf("infer: image %d: %w", i, err)
				}
				continue
			}
			preds[i] = p
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	e.obsRequests.Inc()
	return preds, nil
}

// ClassifyBatch is PredictBatch reduced to class labels, implementing
// learn.BatchClassifier.
func (e *Engine) ClassifyBatch(imgs [][]uint8) ([]int, error) {
	preds, err := e.PredictBatch(imgs)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(preds))
	for i, p := range preds {
		out[i] = p.Class
	}
	return out, nil
}
