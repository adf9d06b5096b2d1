// Root benchmarks: one testing.B benchmark per paper table/figure
// (DESIGN.md §4). Each benchmark runs its experiment at a reduced scale and
// reports the headline quantity of that artifact as a custom metric, so
// `go test -bench=. -benchmem` regenerates the whole evaluation in one
// sweep. cmd/psbench runs the same experiments at larger scales with full
// text output.
package parallelspikesim_test

import (
	"testing"

	"parallelspikesim/internal/carlsim"
	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/experiments"
	"parallelspikesim/internal/fixed"
	"parallelspikesim/internal/synapse"
)

// benchScale is the per-iteration workload of the pipeline benchmarks:
// large enough that the qualitative orderings hold, small enough that a
// full -bench=. sweep finishes in minutes.
func benchScale() experiments.Scale {
	return experiments.Scale{
		Neurons:     40,
		TrainImages: 400,
		LabelImages: 100,
		InferImages: 150,
		Seed:        7,
	}
}

func BenchmarkFig1aLIFCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.FigLIFCurve(nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Measured[len(res.Measured)-1], "peak-Hz")
	}
}

func BenchmarkFig1cSTDPCurves(b *testing.B) {
	cfg, _, err := synapse.PresetConfig(synapse.PresetFloat, synapse.Stochastic)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := experiments.FigSTDPCurves(cfg.Stoch, 100, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Pot[0].Y, "peak-Ppot")
	}
}

func BenchmarkFig1dEncoding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.FigEncoding(encode.BaselineBand())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Points[len(res.Points)-1].Y, "max-Hz")
	}
}

func BenchmarkFig4Activity(b *testing.B) {
	cfg := carlsim.DefaultConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.FigActivityComparison(cfg, 1000, 0)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Identical {
			b.Fatal("spiking activity diverged from the reference simulator")
		}
		b.ReportMetric(res.MeanRateRef, "mean-Hz")
		b.ReportMetric(res.SpeedupPar, "par-speedup")
	}
}

func BenchmarkFig5aMaps(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.FigConductanceMaps(s, 4)
		if err != nil {
			b.Fatal(err)
		}
		// Headline: stochastic minus deterministic accuracy on fashion.
		var det, stoch float64
		for _, e := range res.Entries {
			if e.Data == experiments.Fashion {
				if e.Rule == synapse.Stochastic {
					stoch = e.Accuracy
				} else {
					det = e.Accuracy
				}
			}
		}
		b.ReportMetric(100*(stoch-det), "fashion-gap-pts")
	}
}

func BenchmarkFig5bFreqMaps(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.FigFrequencyMaps(s, []float64{22, 78, 200}, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Accuracies[0], "acc22-pct")
		b.ReportMetric(100*res.Accuracies[len(res.Accuracies)-1], "accHi-pct")
	}
}

func BenchmarkFig6aRasters(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.FigRasters(s, 200)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SpikesRatioMeasured, "spike-ratio")
	}
}

func BenchmarkFig6bHistogram(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.FigConductanceHistogram(s, 32)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.DetFracMin, "det-atGmin-pct")
		b.ReportMetric(100*res.StochFracMin, "stoch-atGmin-pct")
	}
}

func BenchmarkFig7aFreqSweep(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.FigAccuracyVsFrequency(s, []float64{22, 78, 150})
		if err != nil {
			b.Fatal(err)
		}
		// Headline: the baseline's loss at the highest frequency vs the
		// stochastic rule's.
		var detLoss, stochLoss float64
		for _, row := range res.Rows {
			if row.MaxHz == 150 {
				if row.Rule == synapse.Deterministic {
					detLoss = row.AccuracyLoss
				} else {
					stochLoss = row.AccuracyLoss
				}
			}
		}
		b.ReportMetric(100*detLoss, "det-loss150-pts")
		b.ReportMetric(100*stochLoss, "stoch-loss150-pts")
	}
}

func BenchmarkFig7bRuntime(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.FigAccuracyVsRuntime(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[2].Speedup, "hf-speedup")
		b.ReportMetric(100*res.Rows[2].Accuracy, "hf-acc-pct")
	}
}

func BenchmarkFig8cMovingError(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.FigMovingError(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.HighFreq[len(res.HighFreq)-1], "hf-final-err")
	}
}

func BenchmarkTable2Rounding(b *testing.B) {
	// 24 pipeline runs per iteration: the heaviest benchmark. A smaller
	// per-cell scale keeps the sweep tractable.
	s := benchScale()
	s.TrainImages = 250
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableRounding(s)
		if err != nil {
			b.Fatal(err)
		}
		det2 := res.Cell(synapse.Deterministic, fixed.Q0p2, fixed.Stochastic)
		stoch2 := res.Cell(synapse.Stochastic, fixed.Q0p2, fixed.Stochastic)
		b.ReportMetric(100*det2, "det-2bit-pct")
		b.ReportMetric(100*stoch2, "stoch-2bit-pct")
	}
}

func BenchmarkBaselineAnchor(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableBaselineAnchor(s, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.BaselineAccuracy, "det-digits-pct")
		b.ReportMetric(100*res.StochasticAccuracy, "stoch-digits-pct")
		b.ReportMetric(100*res.FashionStochastic, "stoch-fashion-pct")
	}
}

// Ablation benchmarks — the DESIGN.md §7 design-choice sweeps.

func BenchmarkAblateInhibition(b *testing.B) {
	s := benchScale()
	s.TrainImages = 400
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblateInhibition(s, []float64{0, 30})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Rows[0].Accuracy, "noWTA-pct")
		b.ReportMetric(100*res.Rows[1].Accuracy, "tinh30-pct")
	}
}

func BenchmarkAblateWindow(b *testing.B) {
	s := benchScale()
	s.TrainImages = 400
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblateWindow(s, []float64{10, 50, 200})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Rows[1].Accuracy, "W50-pct")
	}
}

func BenchmarkAblateHomeostasis(b *testing.B) {
	s := benchScale()
	s.TrainImages = 400
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblateHomeostasis(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(res.Rows[0].Accuracy-res.Rows[1].Accuracy), "theta-gain-pts")
	}
}

func BenchmarkAblateNoise(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblateNoise(s)
		if err != nil {
			b.Fatal(err)
		}
		// Headline: accuracy retained under 15% salt-pepper, per rule.
		b.ReportMetric(100*res.Rows[2].Det, "det-sp15-pct")
		b.ReportMetric(100*res.Rows[2].Stoch, "stoch-sp15-pct")
	}
}
