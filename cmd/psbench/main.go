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
	"parallelspikesim/internal/config"
	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/experiments"
	"parallelspikesim/internal/fixed"
	"parallelspikesim/internal/learn"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/obs"
	"parallelspikesim/internal/synapse"
)

// expResult is one per-experiment timing row in BENCH_<scale>.json.
type expResult struct {
	Name   string `json:"name"`
	WallNs int64  `json:"wall_ns"`
}

// swarBench is the packed-store integrate probe, recorded as swar_probe in
// BENCH_<scale>.json. Format is the Qm.n format of its codes. The multi_*
// fields time the step-shaped integrate: a train-fast-like step's current
// decay and spiking rows, a decay pass and then one row at a time
// (AccumulateRange per row), against the fused, register-blocked
// AccumulateRows, which must produce the same currents. IntegrateKernel
// names the kernel AccumulateRows ran: "avx2" or "go" (fixed.AVX2). The
// multi_go_* fields time the same blocked pass on the Go kernel
// (AccumulateRowsGo), so its register blocking stays measured on hosts
// that run the AVX2 kernel. The float_multi_* fields time the same step on
// the float store, the one psserve serves: the per-row Go loop
// (AccumulateWeightRowsGo) against AccumulateWeightRows, which runs the
// AVX2 kernel where IntegrateKernel is "avx2" and that same loop
// elsewhere. RollKernel names the kernel the stochastic STDP draws ran
// on: "avx512" or "go" (fixed.AVX512).
type swarBench struct {
	Format string `json:"format"`

	MultiRowsPerStep int     `json:"multi_rows_per_step"`
	MultiLanes       int     `json:"multi_lanes"`
	MultiSteps       int     `json:"multi_steps"`
	MultiPerRowNs    int64   `json:"multi_per_row_ns"`
	MultiBlockedNs   int64   `json:"multi_blocked_ns"`
	MultiSpeedup     float64 `json:"multi_speedup"` // multi_per_row_ns / multi_blocked_ns
	IntegrateKernel  string  `json:"integrate_kernel"`
	RollKernel       string  `json:"roll_kernel"`
	MultiGoBlockedNs int64   `json:"multi_go_blocked_ns"`
	MultiGoSpeedup   float64 `json:"multi_go_speedup"` // multi_per_row_ns / multi_go_blocked_ns

	FloatMultiPerRowNs  int64   `json:"float_multi_per_row_ns"`
	FloatMultiBlockedNs int64   `json:"float_multi_blocked_ns"`
	FloatMultiSpeedup   float64 `json:"float_multi_speedup"` // float_multi_per_row_ns / float_multi_blocked_ns
}

// benchDoc is the machine-readable benchmark summary.
type benchDoc struct {
	Schema         string       `json:"schema"`
	Scale          string       `json:"scale"`
	Neurons        int          `json:"neurons"`
	TrainImages    int          `json:"train_images"`
	Workers        int          `json:"workers"`
	Experiments    []expResult  `json:"experiments"`
	BucketBoundsNs []int64      `json:"bucket_bounds_ns"`
	ProbeMetrics   obs.Snapshot `json:"probe_metrics"`
	SwarCmp        *swarBench   `json:"swar_probe,omitempty"`
}

func main() {
	var (
		scaleName = flag.String("scale", "default", "test | default | paper")
		expList   = flag.String("exp", "all", "comma-separated experiments: fig1a,fig1c,fig1d,fig4,fig5a,fig5b,fig6a,fig6b,fig7a,fig7b,fig8c,table2,anchor,ablate-noise,ablate-inh,ablate-window,ablate-theta,ablate-tau")
		csvDir    = flag.String("csv", "", "directory to write CSV rows (optional)")
		neurons   = flag.Int("neurons", 0, "override scale neurons")
		train     = flag.Int("train", 0, "override scale training images")
		workers   = flag.Int("workers", 0, "engine workers for the fig4 pooled mirror, the only run it sizes (0 = GOMAXPROCS); training runs inline")
		quick     = flag.Bool("quick", false, "CI smoke mode: test scale, fast experiment subset, BENCH_test.json in the current directory")
		benchDir  = flag.String("bench-json", "", "directory to write the BENCH_<scale>.json summary (\"\" = off; -quick defaults to .)")
		metrics   = flag.String("metrics", "", "dump probe metrics to this file, or - for stdout (Prometheus text; *.json for JSON)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
		format    = flag.String("format", "q1.7", "Qm.n format of the multi-row integrate probe's packed codes: q0.2 | q0.4 | q1.7 | q1.15 | float32 (float32 skips the probe)")
	)
	flag.Parse()

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
		res, err := experiments.FigActivityComparison(cfg, 1000, *workers)
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
	probeWall, err := trainProbe(ds, probeNeurons, reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psbench: probe:", err)
		os.Exit(1)
	}
	fmt.Printf("probe: trained %d images × %d neurons in %v (instrumented)\n",
		probeImages, probeNeurons, probeWall.Round(time.Millisecond))

	var swarCmp *swarBench
	if probeFormat.Packable() {
		sw, err := swarProbe(probeFormat)
		if err != nil {
			fmt.Fprintln(os.Stderr, "psbench: swar probe:", err)
			os.Exit(1)
		}
		swarCmp = &sw
		fmt.Printf("swar %s multi-row (%d rows × %d lanes per step): per-row %.2f µs/step, blocked %.2f µs/step — %.2fx\n",
			sw.Format, sw.MultiRowsPerStep, sw.MultiLanes,
			float64(sw.MultiPerRowNs)/1e3/float64(sw.MultiSteps), float64(sw.MultiBlockedNs)/1e3/float64(sw.MultiSteps),
			sw.MultiSpeedup)
		fmt.Printf("swar float32 multi-row (%d rows × %d lanes per step): per-row %.2f µs/step, blocked %.2f µs/step — %.2fx (%s)\n",
			sw.MultiRowsPerStep, sw.MultiLanes,
			float64(sw.FloatMultiPerRowNs)/1e3/float64(sw.MultiSteps), float64(sw.FloatMultiBlockedNs)/1e3/float64(sw.MultiSteps),
			sw.FloatMultiSpeedup, sw.IntegrateKernel)
	} else {
		fmt.Printf("swar probe skipped: %s has no packed representation\n", probeFormat)
	}

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
			Workers:        *workers,
			Experiments:    benchRows,
			BucketBoundsNs: obs.BucketBoundsNs,
			ProbeMetrics:   snap,
			SwarCmp:        swarCmp,
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

// trainProbe trains a float32 deterministic-STDP network of the given size
// on ds, recording into reg, and returns the training wall time.
func trainProbe(ds *dataset.Dataset, neurons int, reg *obs.Registry) (time.Duration, error) {
	m := config.Model{Rule: synapse.Deterministic.String(), Preset: string(synapse.PresetFloat), Seed: 11}
	cfg, ctl, err := m.Resolve(ds.Pixels(), neurons)
	if err != nil {
		return 0, err
	}
	net, err := network.New(cfg, network.WithObserver(reg))
	if err != nil {
		return 0, err
	}
	opts := learn.DefaultOptions()
	opts.Control = ctl
	opts.NumClasses = ds.NumClasses
	tr, err := learn.New(net, opts)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := tr.Train(ds, nil); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// swarProbe runs multiRowProbe over a 784×1024 matrix of format f's codes,
// swept over the whole code range so both rails appear, and records its
// times.
func swarProbe(f fixed.Format) (swarBench, error) {
	const (
		nPre  = 784
		nPost = 1024 // multiple of every lane count, so rows stay word-aligned
		amp   = 0.6
	)
	pk, err := f.Packing()
	if err != nil {
		return swarBench{}, err
	}
	maxCode := f.ToCode(f.Max())
	codes := make([]uint32, nPre*nPost)
	for i := range codes {
		codes[i] = uint32(i) % (maxCode + 1)
	}
	mt, err := multiRowProbe(pk, codes, nPre, nPost, amp)
	if err != nil {
		return swarBench{}, err
	}
	return swarBench{
		Format: f.String(),

		MultiRowsPerStep: multiRowsPerStep,
		MultiLanes:       multiLanes,
		MultiSteps:       multiSteps,
		MultiPerRowNs:    mt.perRow.Nanoseconds(),
		MultiBlockedNs:   mt.blocked.Nanoseconds(),
		MultiSpeedup:     float64(mt.perRow) / float64(mt.blocked),
		IntegrateKernel:  integrateKernel(),
		RollKernel:       rollKernel(),
		MultiGoBlockedNs: mt.goBlocked.Nanoseconds(),
		MultiGoSpeedup:   float64(mt.perRow) / float64(mt.goBlocked),

		FloatMultiPerRowNs:  mt.floatPerRow.Nanoseconds(),
		FloatMultiBlockedNs: mt.floatBlocked.Nanoseconds(),
		FloatMultiSpeedup:   float64(mt.floatPerRow) / float64(mt.floatBlocked),
	}, nil
}

// multiRowProbe's step shape: train-fast averages 8.65 input spikes per
// step, and the step core integrates the whole 1000-neuron layer inline
// (DESIGN.md §16.4), decaying the current by exp(−dt/τ_syn) = exp(−1/4)
// first.
const (
	multiRowsPerStep = 9
	multiLanes       = 1000
	multiSteps       = 2000
)

// integrateKernel names the kernel fixed.AccumulateRows runs its 8-bit
// blocks on, and fixed.AccumulateWeightRows its float lanes, in this build
// and on this host.
func integrateKernel() string {
	if fixed.AVX2() {
		return "avx2"
	}
	return "go"
}

// rollKernel names the kernel synapse.Plasticity draws its stochastic STDP
// rolls on, in this build and on this host.
func rollKernel() string {
	if fixed.AVX512() {
		return "avx512"
	}
	return "go"
}

// multiRowTimes are multiRowProbe's best times per pass.
type multiRowTimes struct {
	perRow, blocked, goBlocked time.Duration
	floatPerRow, floatBlocked  time.Duration
}

// multiRowProbe times train-fast's integrate step shape over the probe's
// codes: each of multiSteps steps decays multiLanes currents and adds
// multiRowsPerStep spiking rows into them. The per-row pass runs a decay
// pass and then AccumulateRange once per spiking row, the form the network
// used before AccumulateRows; the blocked pass calls AccumulateRows once
// per step, and the Go blocked pass AccumulateRowsGo. All three must leave
// bit-identical currents. The float passes run the same steps over an
// nPre × multiLanes float store of full-mantissa weights in [0, 1]:
// AccumulateWeightRowsGo, the per-row loop, and AccumulateWeightRows,
// which must leave the same currents. Best of three interleaved trials per
// side.
func multiRowProbe(pk *fixed.Packing, codes []uint32, nPre, nPost int, amp float64) (mt multiRowTimes, err error) {
	decay := math.Exp(-0.25)
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
			for i := range cur {
				cur[i] *= decay
			}
			for _, pre := range step {
				pk.AccumulateRange(words[pre*wpr:(pre+1)*wpr], amp, cur, 0, multiLanes)
			}
		}
		return time.Since(start), cur
	}
	blockedPass := func(accumulate func(words []fixed.Word, stride int, rows []int, amp, decay float64, cur []float64, lo, hi int)) (time.Duration, []float64) {
		cur := make([]float64, multiLanes)
		start := time.Now()
		for _, step := range rows {
			accumulate(words, wpr, step, amp, decay, cur, 0, multiLanes)
		}
		return time.Since(start), cur
	}
	g := make([]fixed.Weight, nPre*multiLanes)
	for i := range g {
		g[i] = fixed.Weight(float64(i*7919%1000) / 999)
	}
	floatPass := func(accumulate func(g []fixed.Weight, stride int, rows []int, amp, decay float64, cur []float64, lo, hi int)) (time.Duration, []float64) {
		cur := make([]float64, multiLanes)
		start := time.Now()
		for _, step := range rows {
			accumulate(g, multiLanes, step, amp, decay, cur, 0, multiLanes)
		}
		return time.Since(start), cur
	}
	best := func(d *time.Duration, trial int, got time.Duration) {
		if trial == 0 || got < *d {
			*d = got
		}
	}
	for trial := 0; trial < 3; trial++ {
		pd, pc := perRowPass()
		bd, bc := blockedPass(pk.AccumulateRows)
		gd, gc := blockedPass(pk.AccumulateRowsGo)
		fpd, fpc := floatPass(fixed.AccumulateWeightRowsGo)
		fbd, fbc := floatPass(fixed.AccumulateWeightRows)
		if err := sameBits("per-row and blocked multi-row integrate (current)", pc, bc); err != nil {
			return mt, err
		}
		if err := sameBits("per-row and Go blocked multi-row integrate (current)", pc, gc); err != nil {
			return mt, err
		}
		if err := sameBits("per-row and blocked float multi-row integrate (current)", fpc, fbc); err != nil {
			return mt, err
		}
		best(&mt.perRow, trial, pd)
		best(&mt.blocked, trial, bd)
		best(&mt.goBlocked, trial, gd)
		best(&mt.floatPerRow, trial, fpd)
		best(&mt.floatBlocked, trial, fbd)
	}
	return mt, nil
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
