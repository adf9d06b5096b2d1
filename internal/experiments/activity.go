package experiments

import (
	"fmt"

	"parallelspikesim/internal/carlsim"
	"parallelspikesim/internal/engine"
)

// ActivityResult is the Fig 4 data: the spiking activity of the main
// engine versus the CARLsim-style reference on the same 10³-neuron /
// 10⁴-synapse random network, plus the simulation-time comparison.
type ActivityResult struct {
	Cfg        carlsim.Config
	DurationMS float64

	Reference   carlsim.RunStats // AoS single-threaded reference
	MirrorSeq   carlsim.RunStats // main engine, sequential
	MirrorPar   carlsim.RunStats // main engine, worker pool
	ParWorkers  int
	Identical   bool    // spike-for-spike agreement (activity validation)
	SpeedupSeq  float64 // reference wall / mirror sequential wall
	SpeedupPar  float64 // reference wall / mirror parallel wall
	MeanRateRef float64
}

// FigActivityComparison regenerates Fig 4: cross-validates spiking activity
// against the independent reference and compares simulation time. workers
// sizes the pooled mirror's executor (0 = GOMAXPROCS).
func FigActivityComparison(cfg carlsim.Config, durationMS float64, workers int) (*ActivityResult, error) {
	if durationMS <= 0 {
		return nil, fmt.Errorf("experiments: duration %v", durationMS)
	}
	if workers == 0 {
		workers = engine.Auto
	}
	topo := carlsim.RandomTopology(cfg.N, cfg.Synapses, cfg.Seed)

	ref, err := carlsim.New(cfg, topo)
	if err != nil {
		return nil, err
	}
	mirSeq, err := carlsim.NewMirror(cfg, topo, engine.New(1))
	if err != nil {
		return nil, err
	}
	pool := engine.New(workers)
	defer pool.Close()
	mirPar, err := carlsim.NewMirror(cfg, topo, pool)
	if err != nil {
		return nil, err
	}

	res := &ActivityResult{Cfg: cfg, DurationMS: durationMS, ParWorkers: pool.Workers()}
	res.Reference = ref.Run(durationMS)
	res.MirrorSeq = mirSeq.Run(durationMS)
	res.MirrorPar = mirPar.Run(durationMS)
	res.MeanRateRef = res.Reference.MeanRateHz

	res.Identical = true
	for i := range res.Reference.PerNeuron {
		if res.Reference.PerNeuron[i] != res.MirrorSeq.PerNeuron[i] ||
			res.Reference.PerNeuron[i] != res.MirrorPar.PerNeuron[i] {
			res.Identical = false
			break
		}
	}
	if res.MirrorSeq.Wall > 0 {
		res.SpeedupSeq = float64(res.Reference.Wall) / float64(res.MirrorSeq.Wall)
	}
	if res.MirrorPar.Wall > 0 {
		res.SpeedupPar = float64(res.Reference.Wall) / float64(res.MirrorPar.Wall)
	}
	return res, nil
}

// Render formats the Fig 4 comparison.
func (r *ActivityResult) Render() string {
	rows := [][]string{
		{"carlsim-style reference", fmt.Sprintf("%d", r.Reference.TotalSpikes),
			fmt.Sprintf("%.1f", r.Reference.MeanRateHz), r.Reference.Wall.String(), "1.00x"},
		{"ParallelSpikeSim (seq)", fmt.Sprintf("%d", r.MirrorSeq.TotalSpikes),
			fmt.Sprintf("%.1f", r.MirrorSeq.MeanRateHz), r.MirrorSeq.Wall.String(),
			fmt.Sprintf("%.2fx", r.SpeedupSeq)},
		{fmt.Sprintf("ParallelSpikeSim (%d workers)", r.ParWorkers),
			fmt.Sprintf("%d", r.MirrorPar.TotalSpikes),
			fmt.Sprintf("%.1f", r.MirrorPar.MeanRateHz), r.MirrorPar.Wall.String(),
			fmt.Sprintf("%.2fx", r.SpeedupPar)},
	}
	return fmt.Sprintf("Fig 4: spiking activity & simulation time (%d neurons, %d synapses, %.0f ms)\n",
		r.Cfg.N, r.Cfg.Synapses, r.DurationMS) +
		renderTable([]string{"simulator", "total spikes", "mean Hz", "wall", "speedup"}, rows) +
		fmt.Sprintf("spike-for-spike identical: %v\n", r.Identical)
}
