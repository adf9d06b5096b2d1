package experiments

import (
	"fmt"

	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/learn"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/synapse"
)

// AblationRow is one (setting, accuracy) observation of an ablation sweep.
type AblationRow struct {
	Label    string
	Value    float64
	Accuracy float64
}

// AblationResult is a named sweep over one design knob.
type AblationResult struct {
	Name string
	Rows []AblationRow
}

// Render formats an ablation sweep.
func (r *AblationResult) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{row.Label, fmt.Sprintf("%.1f", 100*row.Accuracy)}
	}
	return fmt.Sprintf("Ablation: %s\n", r.Name) +
		renderTable([]string{"setting", "accuracy %"}, rows)
}

// AblateInhibition sweeps the winner-take-all inhibition time t_inh,
// including 0 (WTA disabled). The architecture depends on WTA for neuron
// specialization (paper §III-B), so accuracy should collapse at 0.
func AblateInhibition(s Scale, tinhMS []float64) (*AblationResult, error) {
	if len(tinhMS) == 0 {
		tinhMS = []float64{0, 8, 30, 60}
	}
	res := &AblationResult{Name: "WTA inhibition time t_inh (ms)"}
	for _, tinh := range tinhMS {
		v := tinh
		out, err := runPipeline(RunSpec{
			Data: Digits, Rule: synapse.Stochastic, Preset: synapse.PresetFloat,
			Mutate: func(c *network.Config) { c.TInhMS = v },
		}, s)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Label: fmt.Sprintf("t_inh=%g ms", tinh), Value: tinh, Accuracy: out.Accuracy,
		})
	}
	return res, nil
}

// AblateWindow sweeps the LTP classification window of the learning rule.
// The window must straddle the active-pixel inter-spike interval (~45 ms at
// 22 Hz): far smaller windows classify active synapses as stale, far larger
// ones classify background as causal.
func AblateWindow(s Scale, windowMS []float64) (*AblationResult, error) {
	if len(windowMS) == 0 {
		windowMS = []float64{10, 50, 200}
	}
	res := &AblationResult{Name: "STDP LTP window (ms)"}
	for _, w := range windowMS {
		v := w
		out, err := runPipeline(RunSpec{
			Data: Digits, Rule: synapse.Deterministic, Preset: synapse.PresetFloat,
			Mutate: func(c *network.Config) { c.Syn.Det.WindowMS = v },
		}, s)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Label: fmt.Sprintf("W=%g ms", w), Value: w, Accuracy: out.Accuracy,
		})
	}
	return res, nil
}

// AblateHomeostasis compares the adaptive threshold enabled vs disabled.
// Without it, early winners monopolize the winner-take-all competition.
func AblateHomeostasis(s Scale) (*AblationResult, error) {
	res := &AblationResult{Name: "homeostatic threshold (theta)"}
	for _, on := range []bool{true, false} {
		enabled := on
		out, err := runPipeline(RunSpec{
			Data: Digits, Rule: synapse.Stochastic, Preset: synapse.PresetFloat,
			Mutate: func(c *network.Config) {
				if !enabled {
					c.LIF.ThetaPlus = 0
					c.LIF.ThetaDecayMS = 0
				}
			},
		}, s)
		if err != nil {
			return nil, err
		}
		label := "enabled"
		value := 1.0
		if !on {
			label, value = "disabled", 0.0
		}
		res.Rows = append(res.Rows, AblationRow{Label: label, Value: value, Accuracy: out.Accuracy})
	}
	return res, nil
}

// AblateSynapticTrace sweeps the synaptic current time constant τ_syn
// (0 = instantaneous currents).
func AblateSynapticTrace(s Scale, tauMS []float64) (*AblationResult, error) {
	if len(tauMS) == 0 {
		tauMS = []float64{0, 4, 16}
	}
	res := &AblationResult{Name: "synaptic trace τ_syn (ms)"}
	for _, tau := range tauMS {
		v := tau
		out, err := runPipeline(RunSpec{
			Data: Digits, Rule: synapse.Stochastic, Preset: synapse.PresetFloat,
			Mutate: func(c *network.Config) { c.TauSynMS = v },
		}, s)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Label: fmt.Sprintf("τ_syn=%g ms", tau), Value: tau, Accuracy: out.Accuracy,
		})
	}
	return res, nil
}

// NoiseRow is one corruption level of the robustness sweep.
type NoiseRow struct {
	Corruption string
	Det        float64
	Stoch      float64
}

// NoiseResult compares both rules' inference accuracy on corrupted test
// images after clean training — the robustness corollary of the paper's
// "stochastic STDP prevents rapid changes from loosely correlated spiking
// events" argument.
type NoiseResult struct {
	Rows []NoiseRow
}

// AblateNoise trains both rules on clean digits, then evaluates on
// increasingly corrupted test sets (salt-pepper noise and occlusion).
func AblateNoise(s Scale) (*NoiseResult, error) {
	type corruption struct {
		name string
		make func(*dataset.Dataset) (*dataset.Dataset, error)
	}
	corruptions := []corruption{
		{"clean", func(d *dataset.Dataset) (*dataset.Dataset, error) { return d, nil }},
		{"salt-pepper 5%", func(d *dataset.Dataset) (*dataset.Dataset, error) { return d.WithSaltPepper(0.05, s.Seed) }},
		{"salt-pepper 15%", func(d *dataset.Dataset) (*dataset.Dataset, error) { return d.WithSaltPepper(0.15, s.Seed) }},
		{"occlusion 8x8", func(d *dataset.Dataset) (*dataset.Dataset, error) { return d.WithOcclusion(8, s.Seed) }},
	}
	res := &NoiseResult{Rows: make([]NoiseRow, len(corruptions))}
	for i, c := range corruptions {
		res.Rows[i].Corruption = c.name
	}
	for _, rule := range []synapse.RuleKind{synapse.Deterministic, synapse.Stochastic} {
		// One training run per rule; multiple evaluations.
		train, test, err := makeData(Digits, s)
		if err != nil {
			return nil, err
		}
		syn, ctl, err := synapse.PresetConfig(synapse.PresetFloat, rule)
		if err != nil {
			return nil, err
		}
		syn.Seed = s.Seed
		cfg := network.DefaultConfig(train.Pixels(), s.Neurons, syn)
		net, err := network.New(cfg)
		if err != nil {
			return nil, err
		}
		opts := learn.DefaultOptions()
		opts.Control = ctl
		opts.NumClasses = train.NumClasses
		tr, err := learn.New(net, opts)
		if err != nil {
			return nil, err
		}
		if err := tr.Train(train, nil); err != nil {
			return nil, err
		}
		labelSet, inferSet := test.LabelInferSplit(s.LabelImages)
		model, err := tr.Label(labelSet)
		if err != nil {
			return nil, err
		}
		for i, c := range corruptions {
			corrupted, err := c.make(inferSet)
			if err != nil {
				return nil, err
			}
			conf, err := tr.Evaluate(model, corrupted)
			if err != nil {
				return nil, err
			}
			if rule == synapse.Deterministic {
				res.Rows[i].Det = conf.Accuracy()
			} else {
				res.Rows[i].Stoch = conf.Accuracy()
			}
		}
	}
	return res, nil
}

// Render formats the robustness sweep.
func (r *NoiseResult) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Corruption,
			fmt.Sprintf("%.1f", 100*row.Det),
			fmt.Sprintf("%.1f", 100*row.Stoch),
		}
	}
	return "Ablation: inference robustness to input corruption\n" +
		renderTable([]string{"corruption", "deterministic %", "stochastic %"}, rows)
}
