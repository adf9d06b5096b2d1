// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the real programs from outside, each in a child
// process: training through a child that calls the public dataset /
// network / learn API exactly as pssim does, serving through the psserve
// binary over loopback HTTP. Every run does a fixed amount of work derived
// from -seed and -seconds, checks the program's outputs, and prints one
// JSON result as its last line.
//
// Run it from the repository root through the wrapper, which builds
// everything from source first:
//
//	bash perfbench/run.sh --workload train-fast --seed 1 --seconds 25 --trace 0
//
// Workloads: train-fast, serve-classify, serve-learn (see README.md); -workload
// all runs the three in turn.
// -trace 1 runs the separate traced variant and reports per-layer metrics
// instead of end-to-end ones.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// DefaultSeed is the seed the benchmark records reference digests for;
// HeldOutSeed is kept out of tuning so that a claimed gain can be
// re-checked on inputs nobody optimized against.
const (
	DefaultSeed = 1
	HeldOutSeed = 20191
)

type metricDef struct{ Name, Unit string }

// endToEnd are the metrics every untraced run reports, per workload as
// README.md defines them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"freshness_ms", "ms"},
}

// perLayer are the metrics every traced run reports. A layer the workload
// does not load reads 0.
var perLayer = []metricDef{
	{"dataset.synth_ms", "ms"},
	{"network.new_ms", "ms"},
	{"learn.train_image_ms", "ms"},
	{"learn.self_ms", "ms"},
	{"network.encode_ms", "ms"},
	{"network.encode_build_ms", "ms"},
	{"network.integrate_ms", "ms"},
	{"network.plasticity_ms", "ms"},
	{"network.inhibit_ms", "ms"},
	{"network.input_spikes", "count"},
	{"network.exc_spikes", "count"},
	{"network.syn_updates", "count"},
	{"engine.for_calls", "count"},
	{"engine.busy_frac", "ratio"},
	{"trace.unaccounted_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"psserve.classify_ms", "ms"},
	{"psserve.self_ms", "ms"},
	{"infer.forward_ms", "ms"},
	{"infer.images_per_request", "count"},
	{"psserve.degrade_shrunk", "count"},
	{"psserve.degrade_shed", "count"},
	{"psserve.degrade_saturated", "count"},
	{"psserve.timeouts", "count"},
	{"netio.load_ms", "ms"},
	{"registry.stage_ms", "ms"},
	{"client.lag_p99_ms", "ms"},
	{"client.cpu_ms_per_op", "ms"},
	{"client.p99_ms", "ms"},
	{"continual.train_ms", "ms"},
	{"continual.shadow_ms", "ms"},
	{"continual.emit_ms", "ms"},
	{"continual.emit_io_ms", "ms"},
	{"continual.queue_depth_max", "count"},
	{"continual.promote_ratio", "ratio"},
	{"continual.dropped", "count"},
	{"continual.rollbacks", "count"},
	{"netio.save_ms", "ms"},
	{"netio.ckpt_mb", "MB"},
	{"host.steal_frac", "ratio"},
}

// runConfig is what one benchmark run needs to know.
type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	binDir   string // where run.sh put psserve
	workRoot string // persists across runs: digest ledger, traces
	workDir  string // this run's fixtures and checkpoints, removed at exit
}

// outcome is what a workload hands back: the attempted/failed tally, the
// metrics it measured, and every correctness-gate violation it found.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	violations        []string
}

func (o *outcome) violate(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

const maxViolationsShown = 10

// errInvalid marks a run that measured nothing trustworthy (the generator
// fell behind its schedule); it is reported, never scored.
var errInvalid = errors.New("invalid run")

var workloads = map[string]func(runConfig) (*outcome, error){
	"train-fast":     runTrainFast,
	"serve-classify": runServeClassify,
	"serve-learn":    runServeLearn,
}

func main() {
	var (
		workload  = flag.String("workload", "", "train-fast | serve-classify | serve-learn | all")
		seed      = flag.Uint64("seed", DefaultSeed, "seed every input derives from")
		seconds   = flag.Int("seconds", 25, "nominal measured seconds; sizes the fixed work of the run")
		trace     = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		binDir    = flag.String("bin", ".bench_build/bin", "directory holding the psserve binary")
		workDir   = flag.String("work", ".bench_build/work", "scratch directory for fixtures, checkpoints and traces")
		child     = flag.String("child", "", "internal: run as the train-fast child process")
		images    = flag.Int("images", 0, "internal (child): training images")
		setupOnly = flag.Bool("setup-only", false, "internal (child): exit once set up")
		traceOut  = flag.String("trace-out", "", "internal (child): write spans here")
	)
	flag.Parse()

	if *child == "train" {
		if err := trainChild(*seed, *images, *trace == 1, *setupOnly, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	switch {
	case *workload != "all" && workloads[*workload] == nil:
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q\n", *workload)
		os.Exit(2)
	case *seconds < 1:
		fmt.Fprintf(os.Stderr, "perfbench: -seconds %d\n", *seconds)
		os.Exit(2)
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(os.Stderr, "perfbench: -trace %d\n", *trace)
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = []string{"train-fast", "serve-classify", "serve-learn"}
	}
	// With -workload all, each workload prints its own result line and the
	// exit code is the worst of theirs.
	code := 0
	for _, name := range names {
		cfg := runConfig{
			workload: name, seed: *seed, seconds: *seconds, traced: *trace == 1,
			binDir: *binDir, workRoot: *workDir,
			workDir: filepath.Join(*workDir, "runs", fmt.Sprintf("%s-%d-%d", name, *seed, os.Getpid())),
		}
		code = max(code, runOne(cfg))
	}
	os.Exit(code)
}

// runOne runs one workload, prints its result line and returns the exit
// code: 0 measured and correct, 1 a gate failed, 2 no measurement, 3
// invalid run.
func runOne(cfg runConfig) int {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	out, err := workloads[cfg.workload](cfg)
	if err == nil {
		os.RemoveAll(cfg.workDir) // kept on error: it holds psserve.log
	}
	if errors.Is(err, errInvalid) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 3
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	// Hypervisor steal is not the program's doing but moves every
	// wall-clock metric, so every run states it.
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: host CPU steal %.1f%% while measuring, %.1f%% in the windows timed\n",
		cfg.workload, cfg.seed, 100*out.metrics[stealAllKey], 100*out.metrics["host.steal_frac"])
	line, err := report(out, cfg.traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	for i, v := range out.violations {
		if i == maxViolationsShown {
			fmt.Fprintf(os.Stderr, "perfbench: ... and %d more gate failures\n", len(out.violations)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate failed:", v)
	}
	fmt.Println(line)
	if len(out.violations) > 0 {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report renders the result line: every end-to-end metric for an
// untraced run (each must have been measured unless a gate already
// failed), every per-layer metric for a traced one (unmeasured layers
// read 0).
func report(o *outcome, traced bool) (string, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	r := result{Correct: len(o.violations) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	var missing []string
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if !ok && !traced && len(o.violations) == 0 {
			missing = append(missing, d.Name)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return "", fmt.Errorf("workload did not measure %v", missing)
	}
	if r.Attempted < 1 {
		return "", fmt.Errorf("workload attempted no operations")
	}
	b, err := json.Marshal(r)
	return string(b), err
}
