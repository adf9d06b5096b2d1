package experiments

import (
	"fmt"
	"sort"
	"time"

	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/fixed"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/stats"
	"parallelspikesim/internal/synapse"
	"parallelspikesim/internal/viz"
)

// MapsResult is the Fig 5(a)/Fig 8(a) data: trained conductance maps for
// {baseline, stochastic} × {digits, fashion}, as ASCII tiles of the most
// active neurons' receptive fields, plus the accuracies behind them.
type MapsResult struct {
	Entries []MapsEntry
}

// MapsEntry is one (rule, data set) cell.
type MapsEntry struct {
	Rule     synapse.RuleKind
	Data     DataKind
	Accuracy float64
	Tiles    []string // per-neuron ASCII conductance maps
	Fields   [][]float64
	Width    int
	Height   int
}

// FigConductanceMaps regenerates Fig 5(a): it trains both rules on both
// data sets and dumps the receptive fields of the tileCount neurons with
// the strongest learned contrast.
func FigConductanceMaps(s Scale, tileCount int) (*MapsResult, error) {
	if tileCount <= 0 {
		tileCount = 4
	}
	res := &MapsResult{}
	for _, data := range []DataKind{Digits, Fashion} {
		for _, rule := range []synapse.RuleKind{synapse.Deterministic, synapse.Stochastic} {
			out, err := runPipeline(RunSpec{Data: data, Rule: rule, Preset: synapse.PresetFloat}, s)
			if err != nil {
				return nil, err
			}
			entry := MapsEntry{Rule: rule, Data: data, Accuracy: out.Accuracy, Width: 28, Height: 28}
			for _, n := range topContrastNeurons(out.Net, tileCount) {
				rf := make([]float64, out.Net.Cfg.NumInputs)
				out.Net.Syn.Column(n, rf)
				tile, err := viz.ConductanceASCII(rf, 28, 28)
				if err != nil {
					return nil, err
				}
				entry.Tiles = append(entry.Tiles, tile)
				entry.Fields = append(entry.Fields, rf)
			}
			res.Entries = append(res.Entries, entry)
		}
	}
	return res, nil
}

// topContrastNeurons ranks neurons by receptive-field contrast (top minus
// bottom quartile mean) and returns the best k.
func topContrastNeurons(net *network.Network, k int) []int {
	type scored struct {
		n        int
		contrast float64
	}
	rf := make([]float64, net.Cfg.NumInputs)
	var all []scored
	for n := 0; n < net.Cfg.NumNeurons; n++ {
		net.Syn.Column(n, rf)
		sorted := append([]float64(nil), rf...)
		sort.Float64s(sorted)
		q := len(sorted) / 4
		lo, hi := 0.0, 0.0
		for i := 0; i < q; i++ {
			lo += sorted[i]
			hi += sorted[len(sorted)-1-i]
		}
		all = append(all, scored{n: n, contrast: hi - lo})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].contrast > all[j].contrast })
	if k > len(all) {
		k = len(all)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].n
	}
	return out
}

// Render formats Fig 5(a): accuracy per cell and the conductance tiles.
func (r *MapsResult) Render() string {
	out := "Fig 5(a)/8(a): conductance maps after learning\n"
	for _, e := range r.Entries {
		out += fmt.Sprintf("\n[%s / %s] accuracy %.1f%%\n", e.Rule, e.Data, 100*e.Accuracy)
		out += viz.TileGrid(e.Tiles, 4)
	}
	return out
}

// FreqMapsResult is the Fig 5(b) data: stochastic-STDP conductance maps
// under increasing input-frequency bands, with accuracy per band.
type FreqMapsResult struct {
	Bands      []encode.Band
	Accuracies []float64
	Tiles      [][]string
}

// FigFrequencyMaps regenerates Fig 5(b): the same stochastic network
// trained under four frequency bands; past a critical f_max the maps turn
// chaotic and accuracy collapses.
func FigFrequencyMaps(s Scale, maxHz []float64, tileCount int) (*FreqMapsResult, error) {
	if len(maxHz) == 0 {
		maxHz = []float64{22, 50, 78, 150}
	}
	if tileCount <= 0 {
		tileCount = 4
	}
	res := &FreqMapsResult{}
	for _, f := range maxHz {
		ctl := encode.HighFrequencyControl()
		ctl.Band.MaxHz = f
		if ctl.Band.MinHz > f/4 {
			ctl.Band.MinHz = f / 4
		}
		out, err := runPipeline(RunSpec{
			Data: Digits, Rule: synapse.Stochastic,
			Preset: synapse.PresetHighFreq, Control: &ctl,
		}, s)
		if err != nil {
			return nil, err
		}
		var tiles []string
		for _, n := range topContrastNeurons(out.Net, tileCount) {
			rf := make([]float64, out.Net.Cfg.NumInputs)
			out.Net.Syn.Column(n, rf)
			tile, err := viz.ConductanceASCII(rf, 28, 28)
			if err != nil {
				return nil, err
			}
			tiles = append(tiles, tile)
		}
		res.Bands = append(res.Bands, ctl.Band)
		res.Accuracies = append(res.Accuracies, out.Accuracy)
		res.Tiles = append(res.Tiles, tiles)
	}
	return res, nil
}

// Render formats Fig 5(b).
func (r *FreqMapsResult) Render() string {
	out := "Fig 5(b): stochastic STDP conductance maps vs input frequency\n"
	for i, b := range r.Bands {
		out += fmt.Sprintf("\n[band %.0f–%.0f Hz] accuracy %.1f%%\n", b.MinHz, b.MaxHz, 100*r.Accuracies[i])
		out += viz.TileGrid(r.Tiles[i], 4)
	}
	return out
}

// RastersResult is the Fig 6(a) data: input spike rasters of the same image
// at the baseline and the high-frequency band.
type RastersResult struct {
	LowBand, HighBand   encode.Band
	LowRaster           string
	HighRaster          string
	LowSpikes           int
	HighSpikes          int
	DurationMS          float64
	SpikesRatioMeasured float64
}

// FigRasters regenerates Fig 6(a): one digit image encoded at 1–22 Hz and
// at 5–78 Hz, rendered as ASCII rasters.
func FigRasters(s Scale, durationMS float64) (*RastersResult, error) {
	if durationMS <= 0 {
		durationMS = 200
	}
	img := dataset.SynthDigits(1, s.Seed).Images[0]
	res := &RastersResult{
		LowBand:    encode.BaselineBand(),
		HighBand:   encode.HighFrequencyBand(),
		DurationMS: durationMS,
	}
	for _, mode := range []struct {
		band encode.Band
		dst  *string
		cnt  *int
	}{
		{res.LowBand, &res.LowRaster, &res.LowSpikes},
		{res.HighBand, &res.HighRaster, &res.HighSpikes},
	} {
		src, err := encode.NewSource(img, mode.band, s.Seed, 1)
		if err != nil {
			return nil, err
		}
		plan := src.BuildPlan(0, 1, int(durationMS))
		var events []network.SpikeEvent
		for step := 0; step < plan.Steps(); step++ {
			for _, px := range plan.StepView(step) {
				events = append(events, network.SpikeEvent{TimeMS: float64(step), Index: int(px)})
			}
		}
		*mode.cnt = len(events)
		*mode.dst = viz.RasterASCII(events, len(img), durationMS, durationMS/100, 48)
	}
	if res.LowSpikes > 0 {
		res.SpikesRatioMeasured = float64(res.HighSpikes) / float64(res.LowSpikes)
	}
	return res, nil
}

// Render formats Fig 6(a).
func (r *RastersResult) Render() string {
	return fmt.Sprintf("Fig 6(a): input spike rasters over %.0f ms\n\nlow band %.0f–%.0f Hz (%d spikes):\n%s\nhigh band %.0f–%.0f Hz (%d spikes, %.1fx):\n%s",
		r.DurationMS,
		r.LowBand.MinHz, r.LowBand.MaxHz, r.LowSpikes, r.LowRaster,
		r.HighBand.MinHz, r.HighBand.MaxHz, r.HighSpikes, r.SpikesRatioMeasured, r.HighRaster)
}

// HistogramResult is the Fig 6(b) data: the post-training conductance
// distribution at Q1.7 for the stochastic and deterministic rules.
type HistogramResult struct {
	Stochastic    *stats.Histogram
	Deterministic *stats.Histogram
	StochFracMin  float64 // fraction of synapses at the minimum conductance
	DetFracMin    float64
	StochAcc      float64
	DetAcc        float64
}

// FigConductanceHistogram regenerates Fig 6(b): Q1.7 learning with both
// rules; the deterministic rule collapses a large share of synapses onto
// the minimum conductance.
func FigConductanceHistogram(s Scale, bins int) (*HistogramResult, error) {
	if bins <= 0 {
		bins = 32
	}
	res := &HistogramResult{}
	for _, rule := range []synapse.RuleKind{synapse.Stochastic, synapse.Deterministic} {
		out, err := runPipeline(RunSpec{Data: Digits, Rule: rule, Preset: synapse.Preset8Bit}, s)
		if err != nil {
			return nil, err
		}
		_, maxG, _ := out.Net.Syn.Stats()
		if maxG <= 0 {
			maxG = 1
		}
		h, err := stats.NewHistogram(0, out.Net.Cfg.Syn.GCeil(), bins)
		if err != nil {
			return nil, err
		}
		atMin := 0
		out.Net.Syn.ForEachRow(func(_ int, row []fixed.Weight) {
			for _, g := range row {
				h.Add(float64(g))
				if g == 0 {
					atMin++
				}
			}
		})
		frac := float64(atMin) / float64(out.Net.Syn.Len())
		if rule == synapse.Stochastic {
			res.Stochastic, res.StochFracMin, res.StochAcc = h, frac, out.Accuracy
		} else {
			res.Deterministic, res.DetFracMin, res.DetAcc = h, frac, out.Accuracy
		}
	}
	return res, nil
}

// Render formats Fig 6(b).
func (r *HistogramResult) Render() string {
	return fmt.Sprintf("Fig 6(b): Q1.7 conductance distribution after learning\n\nstochastic STDP (accuracy %.1f%%, %.1f%% of synapses at Gmin):\n%s\ndeterministic STDP (accuracy %.1f%%, %.1f%% of synapses at Gmin):\n%s",
		100*r.StochAcc, 100*r.StochFracMin, r.Stochastic.Render(40),
		100*r.DetAcc, 100*r.DetFracMin, r.Deterministic.Render(40))
}

// FreqSweepRow is one Fig 7(a) point.
type FreqSweepRow struct {
	Rule         synapse.RuleKind
	MaxHz        float64
	Accuracy     float64
	AccuracyLoss float64 // relative to that rule's best across the sweep
}

// FreqSweepResult is the Fig 7(a) data: accuracy loss versus maximum input
// frequency for both rules.
type FreqSweepResult struct {
	Rows []FreqSweepRow
}

// FigAccuracyVsFrequency regenerates Fig 7(a): sweep f_max with each rule's
// parameters held at its Table I row; the baseline degrades sharply past a
// low critical frequency while the short-term stochastic parameterization
// extends the usable band.
func FigAccuracyVsFrequency(s Scale, maxHz []float64) (*FreqSweepResult, error) {
	if len(maxHz) == 0 {
		maxHz = []float64{22, 78, 200, 400}
	}
	res := &FreqSweepResult{}
	for _, rule := range []synapse.RuleKind{synapse.Deterministic, synapse.Stochastic} {
		best := 0.0
		var rows []FreqSweepRow
		for _, f := range maxHz {
			preset := synapse.PresetFloat
			ctl := encode.BaselineControl()
			if rule == synapse.Stochastic {
				preset = synapse.PresetHighFreq
				ctl = encode.HighFrequencyControl()
			}
			// The presentation time shortens with frequency: the paper
			// reduces 500 ms → 100 ms as f_max rises 22 → 78 Hz.
			ctl.Band.MaxHz = f
			ctl.TLearnMS = 500 * 22 / f
			if ctl.TLearnMS < 60 {
				ctl.TLearnMS = 60
			}
			out, err := runPipeline(RunSpec{Data: Digits, Rule: rule, Preset: preset, Control: &ctl}, s)
			if err != nil {
				return nil, err
			}
			rows = append(rows, FreqSweepRow{Rule: rule, MaxHz: f, Accuracy: out.Accuracy})
			if out.Accuracy > best {
				best = out.Accuracy
			}
		}
		for i := range rows {
			rows[i].AccuracyLoss = best - rows[i].Accuracy
		}
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

// Render formats Fig 7(a).
func (r *FreqSweepResult) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Rule.String(),
			fmt.Sprintf("%.0f", row.MaxHz),
			fmt.Sprintf("%.1f", 100*row.Accuracy),
			fmt.Sprintf("%.1f", 100*row.AccuracyLoss),
		}
	}
	return "Fig 7(a): accuracy loss vs max input frequency\n" +
		renderTable([]string{"rule", "f_max Hz", "accuracy %", "loss %"}, rows)
}

// RuntimeRow is one Fig 7(b)/8(b) configuration.
type RuntimeRow struct {
	Name      string
	Accuracy  float64
	TrainWall time.Duration
	Speedup   float64 // vs the baseline row
}

// RuntimeResult is the Fig 7(b)/8(b) data: accuracy versus wall-clock
// learning time for baseline, stochastic and high-frequency stochastic.
type RuntimeResult struct {
	Rows []RuntimeRow
}

// FigAccuracyVsRuntime regenerates Fig 7(b)/Fig 8(b).
func FigAccuracyVsRuntime(s Scale) (*RuntimeResult, error) {
	specs := []struct {
		name string
		spec RunSpec
	}{
		{"baseline (deterministic, 1-22 Hz, 500 ms)", RunSpec{Data: Digits, Rule: synapse.Deterministic, Preset: synapse.PresetFloat}},
		{"stochastic (1-22 Hz, 500 ms)", RunSpec{Data: Digits, Rule: synapse.Stochastic, Preset: synapse.PresetFloat}},
		{"stochastic high-frequency (5-78 Hz, 100 ms)", RunSpec{Data: Digits, Rule: synapse.Stochastic, Preset: synapse.PresetHighFreq}},
	}
	res := &RuntimeResult{}
	var baseWall time.Duration
	for i, sp := range specs {
		out, err := runPipeline(sp.spec, s)
		if err != nil {
			return nil, err
		}
		row := RuntimeRow{Name: sp.name, Accuracy: out.Accuracy, TrainWall: out.TrainWall}
		if i == 0 {
			baseWall = out.TrainWall
			row.Speedup = 1
		} else if out.TrainWall > 0 {
			row.Speedup = float64(baseWall) / float64(out.TrainWall)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats Fig 7(b)/8(b).
func (r *RuntimeResult) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Name,
			fmt.Sprintf("%.1f", 100*row.Accuracy),
			row.TrainWall.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2fx", row.Speedup),
		}
	}
	return "Fig 7(b)/8(b): accuracy vs learning run-time\n" +
		renderTable([]string{"configuration", "accuracy %", "train wall", "speedup"}, rows)
}

// MovingErrorResult is the Fig 8(c) data: training moving error rate versus
// presented images for baseline and high-frequency stochastic learning.
type MovingErrorResult struct {
	Baseline []float64
	HighFreq []float64
}

// FigMovingError regenerates Fig 8(c).
func FigMovingError(s Scale) (*MovingErrorResult, error) {
	base, err := runPipeline(RunSpec{Data: Digits, Rule: synapse.Deterministic, Preset: synapse.PresetFloat}, s)
	if err != nil {
		return nil, err
	}
	hf, err := runPipeline(RunSpec{Data: Digits, Rule: synapse.Stochastic, Preset: synapse.PresetHighFreq}, s)
	if err != nil {
		return nil, err
	}
	return &MovingErrorResult{Baseline: base.MovingError, HighFreq: hf.MovingError}, nil
}

// Render formats Fig 8(c) as two ASCII charts.
func (r *MovingErrorResult) Render() string {
	return "Fig 8(c): moving error rate vs presented images\n\nbaseline:\n" +
		viz.LineChart(r.Baseline, 60, 10) +
		"\nstochastic high-frequency:\n" +
		viz.LineChart(r.HighFreq, 60, 10)
}
