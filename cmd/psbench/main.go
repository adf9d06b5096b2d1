// Command psbench regenerates the paper's tables and figures (DESIGN.md §4)
// at a selectable scale and prints them as text. Use -csv to also write
// machine-readable rows.
//
// Examples:
//
//	psbench -scale test                 # seconds, smoke only
//	psbench -scale default              # minutes, qualitative shapes hold
//	psbench -scale default -exp table2  # one experiment
//	psbench -scale paper                # the full 60k-image workload
//	psbench -quick                      # CI smoke: fast subset + BENCH_test.json
//
// Benchmark output: -bench-json (implied by -quick) writes a machine-readable
// BENCH_<scale>.json with per-experiment wall times and the metric snapshot
// of an instrumented training probe. -metrics and -pprof mirror pssim's
// observability flags.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"parallelspikesim/internal/carlsim"
	"parallelspikesim/internal/core"
	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/engine"
	"parallelspikesim/internal/experiments"
	"parallelspikesim/internal/fixed"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/obs"
	"parallelspikesim/internal/synapse"
)

// expResult is one per-experiment timing row in BENCH_<scale>.json.
type expResult struct {
	Name   string `json:"name"`
	WallNs int64  `json:"wall_ns"`
}

// plasticityBench is the dense-vs-lazy presentation-throughput comparison
// recorded when -plasticity=lazy: both modes present the same image sequence
// to a 784×1000 network in alternating pairs of trials, and the per-pair
// ratio of their wall times is summarized by its median and quartiles.
type plasticityBench struct {
	Inputs        int     `json:"inputs"`
	Neurons       int     `json:"neurons"`
	Presentations int     `json:"presentations"` // per trial
	TLearnMS      float64 `json:"tlearn_ms"`
	Pairs         int     `json:"pairs"`
	DenseNs       int64   `json:"dense_ns"` // median trial
	LazyNs        int64   `json:"lazy_ns"`  // median trial
	DensePresSec  float64 `json:"dense_pres_per_sec"`
	LazyPresSec   float64 `json:"lazy_pres_per_sec"`
	Speedup       float64 `json:"speedup"`     // median per-pair dense_ns / lazy_ns
	SpeedupP25    float64 `json:"speedup_p25"` // lower quartile of the per-pair ratios
	SpeedupP75    float64 `json:"speedup_p75"` // upper quartile of the per-pair ratios
}

// swarBench is the scalar-vs-SWAR kernel comparison: the same
// integrate+potentiate+depress sweep over one synapse matrix, once through
// the per-synapse fixed.Format helpers and once through the word-parallel
// fixed.Packing kernels the sealed synapse.Matrix uses (DESIGN.md §14).
// Both sides must finish in the same weight state and the same currents;
// the speedup is pure lane parallelism. The multi_* fields time the
// step-shaped integrate on their own: a train-fast-like step's spiking
// rows added one row at a time (AccumulateRange per row) against the
// register-blocked AccumulateRows, which must produce the same currents.
type swarBench struct {
	Format        string  `json:"format"`
	Lanes         int     `json:"lanes"`
	Synapses      int     `json:"synapses"`
	Reps          int     `json:"reps"`
	ScalarNs      int64   `json:"scalar_ns"`
	SwarNs        int64   `json:"swar_ns"`
	ScalarMSynSec float64 `json:"scalar_msyn_per_sec"`
	SwarMSynSec   float64 `json:"swar_msyn_per_sec"`
	Speedup       float64 `json:"speedup"` // scalar_ns / swar_ns

	MultiRowsPerStep int     `json:"multi_rows_per_step"`
	MultiLanes       int     `json:"multi_lanes"`
	MultiSteps       int     `json:"multi_steps"`
	MultiPerRowNs    int64   `json:"multi_per_row_ns"`
	MultiBlockedNs   int64   `json:"multi_blocked_ns"`
	MultiSpeedup     float64 `json:"multi_speedup"` // multi_per_row_ns / multi_blocked_ns
}

// encodeBench is the dense-scan vs sparse event-stream encode comparison
// on the paper's input geometry: the same presentation (784 pixels × 1000
// steps, MNIST-like synthetic digit, 0–78 Hz band) encoded once by the
// dense per-step pixel scan (encode.Source.Step) and once through the
// sparse plan builder plus per-step CSR lookups (DESIGN.md §16). Both
// sides must produce the bit-identical spike stream — a divergence fails
// the probe rather than reporting a bogus speedup.
type encodeBench struct {
	Pixels        int     `json:"pixels"`
	Steps         int     `json:"steps"`
	Reps          int     `json:"reps"`
	Spikes        int     `json:"spikes"`
	DenseNs       int64   `json:"dense_ns"`
	SparseNs      int64   `json:"sparse_ns"`
	DenseStepSec  float64 `json:"dense_steps_per_sec"`
	SparseStepSec float64 `json:"sparse_steps_per_sec"`
	Speedup       float64 `json:"speedup"` // dense_ns / sparse_ns
}

// benchDoc is the machine-readable benchmark summary.
type benchDoc struct {
	Schema         string           `json:"schema"`
	Scale          string           `json:"scale"`
	Neurons        int              `json:"neurons"`
	TrainImages    int              `json:"train_images"`
	Workers        int              `json:"workers"`
	Plasticity     string           `json:"plasticity"`
	Experiments    []expResult      `json:"experiments"`
	BucketBoundsNs []int64          `json:"bucket_bounds_ns"`
	ProbeMetrics   obs.Snapshot     `json:"probe_metrics"`
	PlasticityCmp  *plasticityBench `json:"plasticity_probe,omitempty"`
	SwarCmp        *swarBench       `json:"swar_probe,omitempty"`
	EncodeCmp      *encodeBench     `json:"encode_probe,omitempty"`
}

func main() {
	var (
		scaleName  = flag.String("scale", "default", "test | default | paper")
		expList    = flag.String("exp", "all", "comma-separated experiments: fig1a,fig1c,fig1d,fig4,fig5a,fig5b,fig6a,fig6b,fig7a,fig7b,fig8c,table2,anchor,ablate-noise,ablate-inh,ablate-window,ablate-theta,ablate-tau,scaling")
		csvDir     = flag.String("csv", "", "directory to write CSV rows (optional)")
		neurons    = flag.Int("neurons", 0, "override scale neurons")
		train      = flag.Int("train", 0, "override scale training images")
		workers    = flag.Int("workers", 0, "override engine workers")
		quick      = flag.Bool("quick", false, "CI smoke mode: test scale, fast experiment subset, BENCH_test.json in the current directory")
		benchDir   = flag.String("bench-json", "", "directory to write the BENCH_<scale>.json summary (\"\" = off; -quick defaults to .)")
		metrics    = flag.String("metrics", "", "dump probe metrics to this file, or - for stdout (Prometheus text; *.json for JSON)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
		plasticity = flag.String("plasticity", "dense", "STDP scheduling for the training probe: dense | lazy; lazy also runs the dense-vs-lazy throughput comparison at 784×1000")
		format     = flag.String("format", "q1.7", "Qm.n format for the scalar-vs-SWAR kernel probe: q0.2 | q0.4 | q1.7 | q1.15 | float32 (float32 skips the probe)")
	)
	flag.Parse()

	plastMode, err := network.ParsePlasticityMode(*plasticity)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psbench:", err)
		os.Exit(1)
	}
	probeFormat, err := fixed.ParseFormat(*format)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psbench:", err)
		os.Exit(1)
	}

	if *quick {
		*scaleName = "test"
		if *expList == "all" {
			*expList = "fig1a,fig1c,fig1d,fig6a,anchor"
		}
		if *benchDir == "" {
			*benchDir = "."
		}
	}
	if *pprofAddr != "" {
		addr := *pprofAddr
		//psslint:detached opt-in pprof debug listener; serves until the process exits
		go func() {
			if err := http.ListenAndServe(addr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "psbench: pprof server:", err)
			}
		}()
		fmt.Printf("pprof listening on %s\n", addr)
	}

	var scale experiments.Scale
	switch *scaleName {
	case "test":
		scale = experiments.TestScale()
	case "default":
		scale = experiments.DefaultScale()
	case "paper":
		scale = experiments.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "psbench: unknown scale %q\n", *scaleName)
		os.Exit(1)
	}
	if *neurons > 0 {
		scale.Neurons = *neurons
	}
	if *train > 0 {
		scale.TrainImages = *train
	}
	if *workers > 0 {
		scale.Workers = *workers
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*expList, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	sel := func(name string) bool { return all || want[name] }

	writeCSV := func(name string, header []string, rows [][]string) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "psbench:", err)
			return
		}
		f, err := os.Create(filepath.Join(*csvDir, name+".csv"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "psbench:", err)
			return
		}
		defer f.Close()
		w := csv.NewWriter(f)
		_ = w.Write(header)
		_ = w.WriteAll(rows)
		w.Flush()
	}

	fmt.Printf("psbench scale=%s: %d neurons, %d train / %d label / %d infer images\n\n",
		*scaleName, scale.Neurons, scale.TrainImages, scale.LabelImages, scale.InferImages)

	var benchRows []expResult
	run := func(name string, fn func() (string, error)) {
		if !sel(name) {
			return
		}
		start := time.Now()
		out, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "psbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		wall := time.Since(start)
		benchRows = append(benchRows, expResult{Name: name, WallNs: wall.Nanoseconds()})
		fmt.Printf("=== %s (%v) ===\n%s\n", name, wall.Round(time.Millisecond), out)
	}

	run("fig1a", func() (string, error) {
		res, err := experiments.FigLIFCurve(nil)
		if err != nil {
			return "", err
		}
		var rows [][]string
		for i := range res.Currents {
			rows = append(rows, []string{
				fmt.Sprintf("%g", res.Currents[i]),
				fmt.Sprintf("%g", res.Measured[i]),
				fmt.Sprintf("%g", res.Analytic[i]),
			})
		}
		writeCSV("fig1a", []string{"current", "measured_hz", "analytic_hz"}, rows)
		return res.Render(), nil
	})

	run("fig1c", func() (string, error) {
		cfg, _, err := synapse.PresetConfig(synapse.PresetFloat, synapse.Stochastic)
		if err != nil {
			return "", err
		}
		res, err := experiments.FigSTDPCurves(cfg.Stoch, 100, 5)
		if err != nil {
			return "", err
		}
		var rows [][]string
		for i := range res.Pot {
			rows = append(rows, []string{
				fmt.Sprintf("%g", res.Pot[i].X), fmt.Sprintf("%g", res.Pot[i].Y),
				fmt.Sprintf("%g", res.Dep[i].X), fmt.Sprintf("%g", res.Dep[i].Y),
			})
		}
		writeCSV("fig1c", []string{"dt_pot", "p_pot", "dt_dep", "p_dep"}, rows)
		return res.Render(), nil
	})

	run("fig1d", func() (string, error) {
		res, err := experiments.FigEncoding(encode.BaselineBand())
		if err != nil {
			return "", err
		}
		var rows [][]string
		for _, p := range res.Points {
			rows = append(rows, []string{fmt.Sprintf("%g", p.X), fmt.Sprintf("%g", p.Y)})
		}
		writeCSV("fig1d", []string{"intensity", "hz"}, rows)
		return res.Render(), nil
	})

	run("fig4", func() (string, error) {
		cfg := carlsim.DefaultConfig()
		res, err := experiments.FigActivityComparison(cfg, 1000, scale.Workers)
		if err != nil {
			return "", err
		}
		writeCSV("fig4", []string{"simulator", "total_spikes", "mean_hz", "wall_ns"}, [][]string{
			{"reference", strconv.FormatUint(res.Reference.TotalSpikes, 10), fmt.Sprintf("%g", res.Reference.MeanRateHz), strconv.FormatInt(int64(res.Reference.Wall), 10)},
			{"mirror_seq", strconv.FormatUint(res.MirrorSeq.TotalSpikes, 10), fmt.Sprintf("%g", res.MirrorSeq.MeanRateHz), strconv.FormatInt(int64(res.MirrorSeq.Wall), 10)},
			{"mirror_par", strconv.FormatUint(res.MirrorPar.TotalSpikes, 10), fmt.Sprintf("%g", res.MirrorPar.MeanRateHz), strconv.FormatInt(int64(res.MirrorPar.Wall), 10)},
		})
		return res.Render(), nil
	})

	run("fig5a", func() (string, error) {
		res, err := experiments.FigConductanceMaps(scale, 4)
		if err != nil {
			return "", err
		}
		var rows [][]string
		for _, e := range res.Entries {
			rows = append(rows, []string{string(e.Data), e.Rule.String(), fmt.Sprintf("%g", e.Accuracy)})
		}
		writeCSV("fig5a", []string{"data", "rule", "accuracy"}, rows)
		return res.Render(), nil
	})

	run("fig5b", func() (string, error) {
		res, err := experiments.FigFrequencyMaps(scale, nil, 4)
		if err != nil {
			return "", err
		}
		var rows [][]string
		for i, b := range res.Bands {
			rows = append(rows, []string{fmt.Sprintf("%g", b.MaxHz), fmt.Sprintf("%g", res.Accuracies[i])})
		}
		writeCSV("fig5b", []string{"fmax_hz", "accuracy"}, rows)
		return res.Render(), nil
	})

	run("fig6a", func() (string, error) {
		res, err := experiments.FigRasters(scale, 200)
		if err != nil {
			return "", err
		}
		writeCSV("fig6a", []string{"band", "spikes"}, [][]string{
			{"low", strconv.Itoa(res.LowSpikes)},
			{"high", strconv.Itoa(res.HighSpikes)},
		})
		return res.Render(), nil
	})

	run("fig6b", func() (string, error) {
		res, err := experiments.FigConductanceHistogram(scale, 32)
		if err != nil {
			return "", err
		}
		var rows [][]string
		for i := range res.Stochastic.Counts {
			rows = append(rows, []string{
				fmt.Sprintf("%g", res.Stochastic.BinCenter(i)),
				strconv.Itoa(res.Stochastic.Counts[i]),
				strconv.Itoa(res.Deterministic.Counts[i]),
			})
		}
		writeCSV("fig6b", []string{"g", "stochastic_count", "deterministic_count"}, rows)
		return res.Render(), nil
	})

	run("fig7a", func() (string, error) {
		res, err := experiments.FigAccuracyVsFrequency(scale, nil)
		if err != nil {
			return "", err
		}
		var rows [][]string
		for _, row := range res.Rows {
			rows = append(rows, []string{row.Rule.String(), fmt.Sprintf("%g", row.MaxHz),
				fmt.Sprintf("%g", row.Accuracy), fmt.Sprintf("%g", row.AccuracyLoss)})
		}
		writeCSV("fig7a", []string{"rule", "fmax_hz", "accuracy", "loss"}, rows)
		return res.Render(), nil
	})

	run("fig7b", func() (string, error) {
		res, err := experiments.FigAccuracyVsRuntime(scale)
		if err != nil {
			return "", err
		}
		var rows [][]string
		for _, row := range res.Rows {
			rows = append(rows, []string{row.Name, fmt.Sprintf("%g", row.Accuracy),
				strconv.FormatInt(int64(row.TrainWall), 10), fmt.Sprintf("%g", row.Speedup)})
		}
		writeCSV("fig7b", []string{"configuration", "accuracy", "train_wall_ns", "speedup"}, rows)
		return res.Render(), nil
	})

	run("fig8c", func() (string, error) {
		res, err := experiments.FigMovingError(scale)
		if err != nil {
			return "", err
		}
		var rows [][]string
		for i := range res.Baseline {
			hf := ""
			if i < len(res.HighFreq) {
				hf = fmt.Sprintf("%g", res.HighFreq[i])
			}
			rows = append(rows, []string{strconv.Itoa(i), fmt.Sprintf("%g", res.Baseline[i]), hf})
		}
		writeCSV("fig8c", []string{"image", "baseline_error", "highfreq_error"}, rows)
		return res.Render(), nil
	})

	run("table2", func() (string, error) {
		res, err := experiments.TableRounding(scale)
		if err != nil {
			return "", err
		}
		var rows [][]string
		for _, row := range res.Rows {
			rows = append(rows, []string{row.Rule.String(), row.Format.String(),
				row.Rounding.String(), fmt.Sprintf("%g", row.Accuracy)})
		}
		writeCSV("table2", []string{"rule", "format", "rounding", "accuracy"}, rows)
		return res.Render(), nil
	})

	run("ablate-inh", func() (string, error) {
		res, err := experiments.AblateInhibition(scale, nil)
		if err != nil {
			return "", err
		}
		var rows [][]string
		for _, row := range res.Rows {
			rows = append(rows, []string{fmt.Sprintf("%g", row.Value), fmt.Sprintf("%g", row.Accuracy)})
		}
		writeCSV("ablate_inh", []string{"tinh_ms", "accuracy"}, rows)
		return res.Render(), nil
	})

	run("ablate-window", func() (string, error) {
		res, err := experiments.AblateWindow(scale, nil)
		if err != nil {
			return "", err
		}
		var rows [][]string
		for _, row := range res.Rows {
			rows = append(rows, []string{fmt.Sprintf("%g", row.Value), fmt.Sprintf("%g", row.Accuracy)})
		}
		writeCSV("ablate_window", []string{"window_ms", "accuracy"}, rows)
		return res.Render(), nil
	})

	run("ablate-theta", func() (string, error) {
		res, err := experiments.AblateHomeostasis(scale)
		if err != nil {
			return "", err
		}
		var rows [][]string
		for _, row := range res.Rows {
			rows = append(rows, []string{row.Label, fmt.Sprintf("%g", row.Accuracy)})
		}
		writeCSV("ablate_theta", []string{"setting", "accuracy"}, rows)
		return res.Render(), nil
	})

	run("ablate-tau", func() (string, error) {
		res, err := experiments.AblateSynapticTrace(scale, nil)
		if err != nil {
			return "", err
		}
		var rows [][]string
		for _, row := range res.Rows {
			rows = append(rows, []string{fmt.Sprintf("%g", row.Value), fmt.Sprintf("%g", row.Accuracy)})
		}
		writeCSV("ablate_tau", []string{"tau_ms", "accuracy"}, rows)
		return res.Render(), nil
	})

	run("ablate-noise", func() (string, error) {
		res, err := experiments.AblateNoise(scale)
		if err != nil {
			return "", err
		}
		var rows [][]string
		for _, row := range res.Rows {
			rows = append(rows, []string{row.Corruption,
				fmt.Sprintf("%g", row.Det), fmt.Sprintf("%g", row.Stoch)})
		}
		writeCSV("ablate_noise", []string{"corruption", "deterministic", "stochastic"}, rows)
		return res.Render(), nil
	})

	run("scaling", func() (string, error) {
		res, err := experiments.AblateParallelScaling(scale, nil)
		if err != nil {
			return "", err
		}
		var rows [][]string
		for _, row := range res.Rows {
			rows = append(rows, []string{strconv.Itoa(row.Workers),
				strconv.FormatInt(int64(row.Wall), 10), fmt.Sprintf("%g", row.Speedup)})
		}
		writeCSV("scaling", []string{"workers", "wall_ns", "speedup"}, rows)
		return res.Render(), nil
	})

	run("anchor", func() (string, error) {
		res, err := experiments.TableBaselineAnchor(scale, 3)
		if err != nil {
			return "", err
		}
		writeCSV("anchor", []string{"data", "rule", "accuracy"}, [][]string{
			{"digits", "deterministic", fmt.Sprintf("%g", res.BaselineAccuracy)},
			{"digits", "stochastic", fmt.Sprintf("%g", res.StochasticAccuracy)},
			{"fashion", "deterministic", fmt.Sprintf("%g", res.FashionBaseline)},
			{"fashion", "stochastic", fmt.Sprintf("%g", res.FashionStochastic)},
		})
		return res.Render(), nil
	})

	if *benchDir == "" && *metrics == "" {
		return
	}

	// Instrumented probe: a small observed training run whose per-phase
	// histograms and counters anchor the benchmark summary and feed -metrics.
	reg := obs.NewRegistry()
	probeNeurons := scale.Neurons
	if probeNeurons > 32 {
		probeNeurons = 32
	}
	probeImages := scale.TrainImages
	if probeImages > 128 {
		probeImages = 128
	}
	ds := dataset.SynthDigits(probeImages, 11)
	sim, err := core.New(core.Options{
		Inputs:     ds.Pixels(),
		Neurons:    probeNeurons,
		Workers:    scale.Workers,
		Classes:    ds.NumClasses,
		Observer:   reg,
		Plasticity: plastMode,
		Seed:       11,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "psbench: probe:", err)
		os.Exit(1)
	}
	probeStart := time.Now()
	if err := sim.Train(ds, nil); err != nil {
		fmt.Fprintln(os.Stderr, "psbench: probe:", err)
		os.Exit(1)
	}
	sim.Close()
	fmt.Printf("probe: trained %d images × %d neurons in %v (instrumented)\n",
		probeImages, probeNeurons, time.Since(probeStart).Round(time.Millisecond))

	var plastCmp *plasticityBench
	if plastMode == network.LazyPlasticity {
		cmp, err := plasticityThroughput(scale.Workers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "psbench: plasticity probe:", err)
			os.Exit(1)
		}
		plastCmp = &cmp
		fmt.Printf("plasticity %dx%d: dense %.1f pres/s, lazy %.1f pres/s — %.2fx (quartiles %.2f–%.2f over %d pairs)\n",
			cmp.Inputs, cmp.Neurons, cmp.DensePresSec, cmp.LazyPresSec, cmp.Speedup,
			cmp.SpeedupP25, cmp.SpeedupP75, cmp.Pairs)
	}

	var swarCmp *swarBench
	if probeFormat.Packable() {
		sw, err := swarProbe(probeFormat)
		if err != nil {
			fmt.Fprintln(os.Stderr, "psbench: swar probe:", err)
			os.Exit(1)
		}
		swarCmp = &sw
		fmt.Printf("swar %s (%d lanes/word): scalar %.1f Msyn/s, packed %.1f Msyn/s — %.2fx\n",
			sw.Format, sw.Lanes, sw.ScalarMSynSec, sw.SwarMSynSec, sw.Speedup)
		fmt.Printf("swar %s multi-row (%d rows × %d lanes per step): per-row %.2f µs/step, blocked %.2f µs/step — %.2fx\n",
			sw.Format, sw.MultiRowsPerStep, sw.MultiLanes,
			float64(sw.MultiPerRowNs)/1e3/float64(sw.MultiSteps), float64(sw.MultiBlockedNs)/1e3/float64(sw.MultiSteps),
			sw.MultiSpeedup)
	} else {
		fmt.Printf("swar probe skipped: %s has no packed representation\n", probeFormat)
	}

	encCmp, err := encodeProbe()
	if err != nil {
		fmt.Fprintln(os.Stderr, "psbench: encode probe:", err)
		os.Exit(1)
	}
	fmt.Printf("encode %d×%d: dense %.2f ms, sparse %.2f ms — %.2fx (%d spikes)\n",
		encCmp.Pixels, encCmp.Steps,
		float64(encCmp.DenseNs)/1e6, float64(encCmp.SparseNs)/1e6,
		encCmp.Speedup, encCmp.Spikes)

	snap := reg.Snapshot()
	if *benchDir != "" {
		if err := os.MkdirAll(*benchDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "psbench:", err)
			os.Exit(1)
		}
		path := filepath.Join(*benchDir, fmt.Sprintf("BENCH_%s.json", *scaleName))
		if err := writeBench(path, benchDoc{
			Schema:         "psbench-bench/v1",
			Scale:          *scaleName,
			Neurons:        scale.Neurons,
			TrainImages:    scale.TrainImages,
			Workers:        scale.Workers,
			Plasticity:     plastMode.String(),
			Experiments:    benchRows,
			BucketBoundsNs: obs.BucketBoundsNs,
			ProbeMetrics:   snap,
			PlasticityCmp:  plastCmp,
			SwarCmp:        swarCmp,
			EncodeCmp:      &encCmp,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "psbench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
	}
	if *metrics != "" {
		if err := dumpMetrics(*metrics, snap); err != nil {
			fmt.Fprintln(os.Stderr, "psbench: metrics dump:", err)
			os.Exit(1)
		}
	}
}

// plasticityThroughput measures presentation throughput of the dense and
// lazy STDP schedules on the paper's default geometry (784 inputs × 1000
// neurons). Both modes present the identical image sequence with learning
// enabled — the golden suite already proves they compute the same result,
// so the only difference is wall time. Lateral inhibition is ablated
// (TInhMS = 0, the existing no-WTA ablation) so every threshold crosser
// fires and STDP becomes the dominant phase: with the default WTA there
// are only a handful of post spikes per presentation and plasticity
// scheduling is invisible in the total. The deterministic 8-bit operating
// point makes plasticity memory-bound (every post spike moves every
// synapse by a constant grid step), which is where the dense path's
// column-strided walks hurt most and the lazy path's row-contiguous
// replays help most.
func plasticityThroughput(workers int) (plasticityBench, error) {
	const (
		inputs        = 784
		neurons       = 1000
		presentations = 8
		warmup        = 1
	)
	syn, _, err := synapse.PresetConfig(synapse.Preset8Bit, synapse.Deterministic)
	if err != nil {
		return plasticityBench{}, err
	}
	syn.Seed = 7
	cfg := network.DefaultConfig(inputs, neurons, syn)
	cfg.TInhMS = 0 // ablate WTA: plasticity-dominated workload
	ctl := encode.BaselineControl()
	// A small image set cycled repeatedly keeps the network resonant with
	// the patterns it is learning, sustaining a high post-spike rate across
	// every timed presentation — the steady state the probe is after. A
	// long distinct-image sequence would let homeostasis quiet the layer
	// down and dilute plasticity with encode/integrate time.
	ds := dataset.SynthDigits(4, 5)
	if workers == 0 {
		workers = engine.Auto
	}

	measure := func(mode network.PlasticityMode) (time.Duration, error) {
		exec := engine.New(workers)
		defer exec.Close()
		net, err := network.New(cfg, network.WithExecutor(exec), network.WithPlasticity(mode))
		if err != nil {
			return 0, err
		}
		for i := 0; i < warmup; i++ {
			if _, err := net.Present(ds.Images[i%ds.Len()], ctl, true, nil); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		for i := warmup; i < warmup+presentations; i++ {
			if _, err := net.Present(ds.Images[i%ds.Len()], ctl, true, nil); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}

	// Alternating pairs of trials: a slow machine phase lands on both
	// trials of a pair, so the per-pair ratio cancels most of it, and the
	// mode that goes first alternates so neither always runs on a warm
	// cache. Each trial rebuilds its network, so both modes always start
	// from the same initial weights. Best-of-three trials spread 0.84–1.60×
	// run to run on a 2-vCPU VM; the median over pairs with its quartiles
	// says how far a single reading can be trusted.
	const pairs = 11
	dense := make([]float64, pairs)
	lazy := make([]float64, pairs)
	ratios := make([]float64, pairs)
	for i := 0; i < pairs; i++ {
		order := []network.PlasticityMode{network.DensePlasticity, network.LazyPlasticity}
		if i%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, mode := range order {
			d, err := measure(mode)
			if err != nil {
				return plasticityBench{}, err
			}
			if mode == network.DensePlasticity {
				dense[i] = float64(d)
			} else {
				lazy[i] = float64(d)
			}
		}
		ratios[i] = dense[i] / lazy[i]
	}
	denseWall, lazyWall := quantile(dense, 0.5), quantile(lazy, 0.5)
	persec := func(ns float64) float64 {
		return float64(presentations) / (ns / 1e9)
	}
	return plasticityBench{
		Inputs:        inputs,
		Neurons:       neurons,
		Presentations: presentations,
		TLearnMS:      ctl.TLearnMS,
		Pairs:         pairs,
		DenseNs:       int64(denseWall),
		LazyNs:        int64(lazyWall),
		DensePresSec:  persec(denseWall),
		LazyPresSec:   persec(lazyWall),
		Speedup:       quantile(ratios, 0.5),
		SpeedupP25:    quantile(ratios, 0.25),
		SpeedupP75:    quantile(ratios, 0.75),
	}, nil
}

// quantile returns the q-quantile of xs (0 ≤ q ≤ 1), interpolating
// linearly between order statistics. xs must be non-empty; it is not
// modified.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// swarProbe times the same integrate+plasticity sweep twice over a
// 784×1024 synapse matrix: a scalar pass through the per-synapse
// fixed.Format helpers (one AddSat/SubSat call and one float accumulate per
// synapse — the code path before the packed store), and a SWAR pass through
// the fixed.Packing word kernels (one AccumulateRange/AddSatMasked/
// SubSatMasked call per row). Each rep is one full-matrix presentation:
// integrate every row into the current vector, potentiate every synapse one
// step, depress it back one step. The select mask is built once, mirroring
// how the lazy queue amortises mask construction across a row's events.
// Both passes must end in the bit-identical weight state and current
// vector — the kernels' contract — so a divergence fails the probe rather
// than reporting a bogus speedup. Best of three interleaved trials per
// side. multiRowProbe then times the step-shaped integrate on the same
// codes.
func swarProbe(f fixed.Format) (swarBench, error) {
	const (
		nPre  = 784
		nPost = 1024 // multiple of every lane count, so rows stay word-aligned
		reps  = 4
		amp   = 0.6
	)
	pk, err := f.Packing()
	if err != nil {
		return swarBench{}, err
	}
	nSyn := nPre * nPost
	maxCode := f.ToCode(f.Max())
	codes := make([]uint32, nSyn)
	for i := range codes {
		codes[i] = uint32(i) % (maxCode + 1) // sweep the whole code range incl. both saturation rails
	}
	wpr := pk.WordsFor(nPost)

	scalarPass := func() (time.Duration, []float64, []float64) {
		g := make([]fixed.Weight, nSyn)
		for i, c := range codes {
			g[i] = fixed.Weight(f.FromCode(c))
		}
		cur := make([]float64, nPost)
		step, ceil := f.Step(), f.Max()
		start := time.Now()
		for r := 0; r < reps; r++ {
			for pre := 0; pre < nPre; pre++ {
				row := g[pre*nPost : (pre+1)*nPost]
				for i, w := range row {
					cur[i] += float64(w) * amp
				}
				for i := range row {
					row[i] = f.AddSat(row[i], step, ceil, fixed.Nearest, 0)
				}
				for i := range row {
					row[i] = f.SubSat(row[i], step, 0, fixed.Nearest, 0)
				}
			}
		}
		wall := time.Since(start)
		out := make([]float64, nSyn)
		for i, w := range g {
			out[i] = float64(w)
		}
		return wall, out, cur
	}

	swarPass := func() (time.Duration, []float64, []float64) {
		words := pk.Pack(codes)
		cur := make([]float64, nPost)
		sel := pk.NewSelect(nPost)
		for i := 0; i < nPost; i++ {
			pk.SetLane(sel, i)
		}
		start := time.Now()
		for r := 0; r < reps; r++ {
			for pre := 0; pre < nPre; pre++ {
				row := words[pre*wpr : (pre+1)*wpr]
				pk.AccumulateRange(row, amp, cur, 0, nPost)
				pk.AddSatMasked(row, sel, maxCode)
				pk.SubSatMasked(row, sel, 0)
			}
		}
		wall := time.Since(start)
		out := make([]float64, 0, nSyn)
		for _, c := range pk.Unpack(words, nSyn, nil) {
			out = append(out, f.FromCode(c))
		}
		return wall, out, cur
	}

	const trials = 3
	var scalarWall, swarWall time.Duration
	var scalarG, swarG, scalarCur, swarCur []float64
	for trial := 0; trial < trials; trial++ {
		sd, sg, sc := scalarPass()
		wd, wg, wc := swarPass()
		if trial == 0 {
			scalarG, swarG = sg, wg
			scalarCur, swarCur = sc, wc
			scalarWall, swarWall = sd, wd
			continue
		}
		if sd < scalarWall {
			scalarWall = sd
		}
		if wd < swarWall {
			swarWall = wd
		}
	}
	if err := sameBits("scalar and packed weights (synapse)", scalarG, swarG); err != nil {
		return swarBench{}, err
	}
	if err := sameBits("scalar and packed integrate (current)", scalarCur, swarCur); err != nil {
		return swarBench{}, err
	}
	perRow, blocked, err := multiRowProbe(pk, codes, nPre, nPost, amp)
	if err != nil {
		return swarBench{}, err
	}
	msyn := func(d time.Duration) float64 {
		return float64(nSyn) * reps / d.Seconds() / 1e6
	}
	return swarBench{
		Format:        f.String(),
		Lanes:         pk.Lanes(),
		Synapses:      nSyn,
		Reps:          reps,
		ScalarNs:      scalarWall.Nanoseconds(),
		SwarNs:        swarWall.Nanoseconds(),
		ScalarMSynSec: msyn(scalarWall),
		SwarMSynSec:   msyn(swarWall),
		Speedup:       float64(scalarWall) / float64(swarWall),

		MultiRowsPerStep: multiRowsPerStep,
		MultiLanes:       multiLanes,
		MultiSteps:       multiSteps,
		MultiPerRowNs:    perRow.Nanoseconds(),
		MultiBlockedNs:   blocked.Nanoseconds(),
		MultiSpeedup:     float64(perRow) / float64(blocked),
	}, nil
}

// multiRowProbe's step shape: train-fast averages 8.65 input spikes per
// step, and one worker of the 2-worker pool owns 500 of the 1000 neurons.
const (
	multiRowsPerStep = 9
	multiLanes       = 500
	multiSteps       = 2000
)

// multiRowProbe times train-fast's integrate step shape over the probe's
// codes: each of multiSteps steps adds multiRowsPerStep spiking rows into
// multiLanes currents. The per-row pass calls AccumulateRange once per
// spiking row, the form the network used before AccumulateRows; the
// blocked pass calls AccumulateRows once per step. Both must leave
// bit-identical currents. Best of three interleaved trials per side.
func multiRowProbe(pk *fixed.Packing, codes []uint32, nPre, nPost int, amp float64) (perRow, blocked time.Duration, err error) {
	words := pk.Pack(codes)
	wpr := pk.WordsFor(nPost)
	// Ascending spike lists, as plan replay delivers them, spread over the
	// input rows by a fixed stride so consecutive steps touch different rows.
	rows := make([][]int, multiSteps)
	for s := range rows {
		r := make([]int, multiRowsPerStep)
		for k := range r {
			r[k] = (s*37 + k*(nPre/multiRowsPerStep)) % nPre
		}
		sort.Ints(r)
		rows[s] = r
	}
	perRowPass := func() (time.Duration, []float64) {
		cur := make([]float64, multiLanes)
		start := time.Now()
		for _, step := range rows {
			for _, pre := range step {
				pk.AccumulateRange(words[pre*wpr:(pre+1)*wpr], amp, cur, 0, multiLanes)
			}
		}
		return time.Since(start), cur
	}
	blockedPass := func() (time.Duration, []float64) {
		cur := make([]float64, multiLanes)
		start := time.Now()
		for _, step := range rows {
			pk.AccumulateRows(words, wpr, step, amp, cur, 0, multiLanes)
		}
		return time.Since(start), cur
	}
	for trial := 0; trial < 3; trial++ {
		pd, pc := perRowPass()
		bd, bc := blockedPass()
		if err := sameBits("per-row and blocked multi-row integrate (current)", pc, bc); err != nil {
			return 0, 0, err
		}
		if trial == 0 || pd < perRow {
			perRow = pd
		}
		if trial == 0 || bd < blocked {
			blocked = bd
		}
	}
	return perRow, blocked, nil
}

// sameBits fails unless a and b hold the same float64 bit patterns.
func sameBits(what string, a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: %d vs %d values", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("%s diverged at %d: %v vs %v", what, i, a[i], b[i])
		}
	}
	return nil
}

// encodeProbe times one full presentation's spike encoding twice: the dense
// per-step scan over all pixels (the code path before the sparse event
// stream), and the sparse plan build plus per-step CSR lookups the network
// now runs on. The image is an MNIST-like synthetic digit — mostly silent
// background with a minority of ink pixels — over the paper's 0–78 Hz
// high-frequency band, so the sparse side's cost scales with active pixels
// and spikes per step while the dense side pays for the whole field every
// step. Both sides must produce the bit-identical spike stream. Best of
// three interleaved trials per side, as in swarProbe.
func encodeProbe() (encodeBench, error) {
	const (
		pixels = 28 * 28
		steps  = 1000
		reps   = 4
		dt     = 1.0
		seed   = 0xe5c0de
	)
	img := dataset.SynthDigits(1, seed).Images[0]
	if len(img) != pixels {
		return encodeBench{}, fmt.Errorf("synthetic digit has %d pixels, want %d", len(img), pixels)
	}
	band := encode.Band{MinHz: 0, MaxHz: 78}
	src, err := encode.NewSource(img, band, encode.Poisson, seed, 0)
	if err != nil {
		return encodeBench{}, err
	}

	// Reference spike stream for the bit-identity check, built outside the
	// timed region.
	src.Prepare(dt)
	want := make([][]int, steps)
	total := 0
	for st := 0; st < steps; st++ {
		want[st] = src.Step(uint64(st), dt, nil)
		total += len(want[st])
	}

	densePass := func() time.Duration {
		buf := make([]int, 0, pixels)
		start := time.Now()
		for r := 0; r < reps; r++ {
			src.Prepare(dt)
			for st := 0; st < steps; st++ {
				buf = src.Step(uint64(st), dt, buf[:0])
			}
		}
		return time.Since(start)
	}

	var plan *encode.Plan
	sparsePass := func() (time.Duration, error) {
		buf := make([]int, 0, pixels)
		var mismatch error
		start := time.Now()
		for r := 0; r < reps; r++ {
			plan = src.BuildPlanInto(plan, 0, dt, steps)
			for st := 0; st < steps; st++ {
				buf = plan.Step(st, buf[:0])
				if len(buf) != len(want[st]) && mismatch == nil {
					mismatch = fmt.Errorf("sparse step %d holds %d spikes, dense %d",
						st, len(buf), len(want[st]))
				}
			}
		}
		return time.Since(start), mismatch
	}

	const trials = 3
	var denseWall, sparseWall time.Duration
	for trial := 0; trial < trials; trial++ {
		dd := densePass()
		sd, err := sparsePass()
		if err != nil {
			return encodeBench{}, err
		}
		if trial == 0 || dd < denseWall {
			denseWall = dd
		}
		if trial == 0 || sd < sparseWall {
			sparseWall = sd
		}
	}

	// Full bit-identity, not just counts: every (step, pixel) event of the
	// final sparse plan must match the dense reference exactly.
	var buf []int
	for st := 0; st < steps; st++ {
		buf = plan.Step(st, buf[:0])
		if len(buf) != len(want[st]) {
			return encodeBench{}, fmt.Errorf("sparse step %d holds %d spikes, dense %d",
				st, len(buf), len(want[st]))
		}
		for i, px := range want[st] {
			if buf[i] != px {
				return encodeBench{}, fmt.Errorf("sparse step %d event %d is pixel %d, dense %d",
					st, i, buf[i], px)
			}
		}
	}

	stepsSec := func(d time.Duration) float64 {
		return float64(steps) * reps / d.Seconds()
	}
	return encodeBench{
		Pixels:        pixels,
		Steps:         steps,
		Reps:          reps,
		Spikes:        total,
		DenseNs:       denseWall.Nanoseconds(),
		SparseNs:      sparseWall.Nanoseconds(),
		DenseStepSec:  stepsSec(denseWall),
		SparseStepSec: stepsSec(sparseWall),
		Speedup:       float64(denseWall) / float64(sparseWall),
	}, nil
}

// writeBench writes the benchmark summary as indented JSON.
func writeBench(path string, doc benchDoc) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(doc)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// dumpMetrics writes the snapshot to a file or stdout ("-"), Prometheus
// text by default and JSON for *.json paths.
func dumpMetrics(target string, snap obs.Snapshot) error {
	if target == "-" {
		return snap.WritePrometheus(os.Stdout)
	}
	f, err := os.Create(target)
	if err != nil {
		return err
	}
	if strings.HasSuffix(target, ".json") {
		err = snap.WriteJSON(f)
	} else {
		err = snap.WritePrometheus(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
