// Package golden pins the simulator's exact numerical behaviour with
// committed trace digests. Each golden case trains a small fixed network on
// a synthetic image sequence and reduces the full execution trace — every
// input and neuron spike, the winner of every presentation, the final
// conductance matrix and homeostatic thresholds — to CRC32 digests stored
// in testdata/ (regenerate with `go generate ./internal/golden`).
//
// The suite serves two purposes. First, it is a regression tripwire: any
// change that perturbs a single spike, RNG draw or weight update in any
// (rule × format × rounding) combination flips a digest. Second, it is the
// bit-identity proof for the other paths through the same simulation:
// frozen-weight inference, pooled or not, and the continual trainer's
// offline audit replay must reproduce what the training run recorded (see
// DESIGN.md §11).
package golden

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/fixed"
	"parallelspikesim/internal/infer"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/synapse"
)

// Schema identifies the trace file format.
const Schema = "psgolden/v1"

// Fixed geometry of every golden case: small enough that the full suite
// replays in seconds, large enough that WTA, homeostasis and both plasticity
// rules all engage.
const (
	numNeurons = 12
	numImages  = 4
	tLearnMS   = 80
	caseSeed   = 0x601d
)

// Case is one point of the golden grid: a learning rule, a conductance
// format and a rounding mode.
type Case struct {
	Name     string
	Preset   synapse.Preset
	Rule     synapse.RuleKind
	Rounding fixed.Rounding
}

func roundingSlug(r fixed.Rounding) string {
	switch r {
	case fixed.Truncate:
		return "trunc"
	case fixed.Nearest:
		return "nearest"
	case fixed.Stochastic:
		return "stoch"
	default:
		return fmt.Sprintf("rounding%d", int(r))
	}
}

// Cases enumerates the golden grid: both rules × the paper's quantized
// formats (Q0.2, Q1.7, Q1.15) × all three rounding modes, then both rules
// on the float32 store. Rounding is a no-op on float, so a float case runs
// one rounding and its name carries none. The float cases come last, so
// the quantized cases keep their indices.
func Cases() []Case {
	rules := []synapse.RuleKind{synapse.Deterministic, synapse.Stochastic}
	var out []Case
	for _, rule := range rules {
		for _, preset := range []synapse.Preset{synapse.Preset2Bit, synapse.Preset8Bit, synapse.Preset16Bit} {
			for _, rounding := range []fixed.Rounding{fixed.Truncate, fixed.Nearest, fixed.Stochastic} {
				out = append(out, Case{
					Name:     fmt.Sprintf("%s-%s-%s", rule, preset, roundingSlug(rounding)),
					Preset:   preset,
					Rule:     rule,
					Rounding: rounding,
				})
			}
		}
	}
	for _, rule := range rules {
		out = append(out, Case{
			Name:     fmt.Sprintf("%s-%s", rule, synapse.PresetFloat),
			Preset:   synapse.PresetFloat,
			Rule:     rule,
			Rounding: fixed.Nearest,
		})
	}
	return out
}

// Trace is the committed digest of one case's execution.
type Trace struct {
	Schema   string `json:"schema"`
	Case     string `json:"case"`
	Rule     string `json:"rule"`
	Preset   string `json:"preset"`
	Rounding string `json:"rounding"`

	Images        int `json:"images"`
	StepsPerImage int `json:"steps_per_image"`

	InputSpikes uint64 `json:"input_spikes"`
	ExcSpikes   uint64 `json:"exc_spikes"`
	Winners     []int  `json:"winners"`   // winner index per presentation (-1 = silent)
	SpikeCRC    uint32 `json:"spike_crc"` // every (time, index) spike event, inputs then neurons, per step
	WeightCRC   uint32 `json:"weight_crc"`
	ThetaCRC    uint32 `json:"theta_crc"`

	// Frozen-weight inference digests: after training, the same images are
	// replayed through the infer engine (image i at start step
	// i·StepsPerImage, neurons labeled round-robin over InferClasses).
	// Additive fields, so the schema stays psgolden/v1.
	InferWinners []int  `json:"infer_winners"`  // most-active neuron per image
	InferPreds   []int  `json:"infer_preds"`    // voted class per image
	InferVoteCRC uint32 `json:"infer_vote_crc"` // per-image (winner, pred, vote vector)
}

// Result is a live replay of one case: the digest trace plus the raw final
// state, so tests can compare execution strategies exactly, not only
// through CRCs.
type Result struct {
	Trace   Trace
	Weights []fixed.Weight
	Theta   []float64
}

// CaseConfig returns the network configuration and frequency control of a
// golden case — the exact setup Run trains with, exported so the inference
// differential tests replay the same (rule × format × rounding) grid.
func CaseConfig(c Case) (network.Config, encode.Control, error) {
	syn, _, err := synapse.PresetConfig(c.Preset, c.Rule)
	if err != nil {
		return network.Config{}, encode.Control{}, err
	}
	syn.Rounding = c.Rounding
	syn.Seed = caseSeed
	cfg := network.DefaultConfig(28*28, numNeurons, syn)
	ctl := encode.Control{Band: encode.HighFrequencyBand(), TLearnMS: tLearnMS}
	return cfg, ctl, nil
}

// CaseImages returns the synthetic image sequence every golden case trains
// on (and the inference digests replay).
func CaseImages() *dataset.Dataset {
	return dataset.SynthDigits(numImages, caseSeed)
}

// InferClasses is the class arity of the golden inference digests.
const InferClasses = 10

// InferAssignments labels the golden population round-robin over the class
// range: neuron i serves class i mod InferClasses. A fixed synthetic
// labeling keeps the inference digests independent of the (training-quality-
// dependent) learned labeling while still exercising every vote path.
func InferAssignments(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % InferClasses
	}
	return out
}

// Run replays a case under the given network options and digests the
// trace. The reference is Run(c) with no options.
func Run(c Case, opts ...network.Option) (*Result, error) {
	cfg, ctl, err := CaseConfig(c)
	if err != nil {
		return nil, err
	}
	net, err := network.New(cfg, opts...)
	if err != nil {
		return nil, err
	}
	data := CaseImages()

	tr := Trace{
		Schema:        Schema,
		Case:          c.Name,
		Rule:          c.Rule.String(),
		Preset:        string(c.Preset),
		Rounding:      roundingSlug(c.Rounding),
		Images:        numImages,
		StepsPerImage: int(tLearnMS / cfg.DTms),
	}
	spikeCRC := crc32.NewIEEE()
	var buf [12]byte
	digest := func(events []network.SpikeEvent) {
		for _, ev := range events {
			binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(ev.TimeMS))
			binary.LittleEndian.PutUint32(buf[8:], uint32(ev.Index))
			spikeCRC.Write(buf[:])
		}
	}
	for i := 0; i < data.Len(); i++ {
		rec := &network.Recorder{}
		res, err := net.Present(data.Images[i], ctl, true, rec)
		if err != nil {
			return nil, fmt.Errorf("golden: case %s image %d: %w", c.Name, i, err)
		}
		digest(rec.InputSpikes)
		digest(rec.NeuronSpikes)
		w, _ := res.Winner()
		tr.Winners = append(tr.Winners, w)
		tr.InputSpikes += uint64(res.InputSpikes)
		tr.ExcSpikes += uint64(res.TotalSpikes())
	}
	weights := net.Syn.Weights()
	tr.SpikeCRC = spikeCRC.Sum32()
	tr.WeightCRC = crcFloats(weightsAsFloats(weights))
	tr.ThetaCRC = crcFloats(net.Exc.Theta())
	res := &Result{
		Trace:   tr,
		Weights: weights,
		Theta:   append([]float64(nil), net.Exc.Theta()...),
	}
	// Inference digests always come from the sequential reference engine;
	// pooled inference must reproduce them (TestPooledInferMatchesGolden).
	preds, err := InferReplay(c, res)
	if err != nil {
		return nil, fmt.Errorf("golden: case %s inference replay: %w", c.Name, err)
	}
	res.Trace.InferWinners = preds.Winners
	res.Trace.InferPreds = preds.Preds
	res.Trace.InferVoteCRC = preds.VoteCRC
	return res, nil
}

// InferTrace is the digest of one case's frozen-weight inference replay.
type InferTrace struct {
	Winners []int
	Preds   []int
	VoteCRC uint32
}

// InferReplay classifies the case's training images through a frozen-weight
// inference engine built from the trained state in res, image i presented at
// start step i·StepsPerImage. Options select the execution strategy (e.g. a
// pooled executor); the digests must not depend on it.
func InferReplay(c Case, res *Result, opts ...infer.Option) (InferTrace, error) {
	cfg, ctl, err := CaseConfig(c)
	if err != nil {
		return InferTrace{}, err
	}
	eng, err := infer.New(infer.Params{
		Net:         cfg,
		Control:     ctl,
		G:           weightsAsFloats(res.Weights),
		Theta:       res.Theta,
		Assignments: InferAssignments(numNeurons),
		NumClasses:  InferClasses,
	}, opts...)
	if err != nil {
		return InferTrace{}, err
	}
	data := CaseImages()
	// The batch path schedules image i at start step i·StepsPerImage, the
	// same clock a sequential per-image loop would use, so the digests are
	// executor-independent by construction — and this test proves it.
	preds, err := eng.PredictBatch(data.Images)
	if err != nil {
		return InferTrace{}, err
	}
	it := InferTrace{}
	h := crc32.NewIEEE()
	var buf [4]byte
	word := func(v int) {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		h.Write(buf[:])
	}
	for _, p := range preds {
		it.Winners = append(it.Winners, p.Winner)
		it.Preds = append(it.Preds, p.Class)
		word(p.Winner)
		word(p.Class)
		for _, v := range p.Votes {
			word(v)
		}
	}
	it.VoteCRC = h.Sum32()
	return it, nil
}

func weightsAsFloats(g []fixed.Weight) []float64 {
	out := make([]float64, len(g))
	for i, w := range g {
		out[i] = float64(w)
	}
	return out
}

func crcFloats(vs []float64) uint32 {
	h := crc32.NewIEEE()
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return h.Sum32()
}

// TracePath returns the committed location of a case's trace.
func TracePath(dir string, c Case) string {
	return dir + "/" + c.Name + ".json"
}

// WriteTrace writes a trace as indented JSON (the committed testdata
// format).
func WriteTrace(path string, tr Trace) error {
	b, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadTrace loads a committed trace and validates its schema.
func ReadTrace(path string) (Trace, error) {
	var tr Trace
	b, err := os.ReadFile(path)
	if err != nil {
		return tr, err
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		return tr, fmt.Errorf("golden: %s: %w", path, err)
	}
	if tr.Schema != Schema {
		return tr, fmt.Errorf("golden: %s: schema %q, want %q", path, tr.Schema, Schema)
	}
	return tr, nil
}

//go:generate go run ./gen
