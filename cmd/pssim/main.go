// Command pssim trains and evaluates one ParallelSpikeSim configuration:
// the paper's pipeline (train → label → infer) over a chosen data set,
// learning rule, precision preset, rounding option and frequency control.
//
// Examples:
//
//	pssim -data digits -rule stochastic -train 2000 -neurons 100
//	pssim -data fashion -rule deterministic -train 2000
//	pssim -preset 8bit -rounding truncation -rule stochastic
//	pssim -preset highfreq -rule stochastic            # fast learning mode
//	pssim -mnist /data/mnist -rule stochastic           # real IDX files
//	pssim -config run.json                              # environment file
//	pssim -save model.pss … ; pssim -load model.pss …   # persist/reuse
//
// Long runs can be made crash-safe with periodic checkpoints. A run
// interrupted by Ctrl-C (or SIGTERM, or a crash) resumes bit-identically
// from its last checkpoint:
//
//	pssim -train 60000 -checkpoint run.ckpt -checkpoint-every 500
//	pssim -train 60000 -checkpoint run.ckpt -resume   # after interruption
//
// Observability: -metrics dumps per-phase timing histograms and cumulative
// spike/update counters (Prometheus text, or JSON for *.json paths);
// -metrics-every refreshes the dump during training; -pprof serves
// net/http/pprof on the given address. Cumulative counters survive
// -checkpoint / -resume cycles.
//
//	pssim -train 2000 -metrics -                       # dump to stdout at exit
//	pssim -train 60000 -metrics run.prom -metrics-every 1000 -pprof :6060
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"parallelspikesim/internal/config"
	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/engine"
	"parallelspikesim/internal/fixed"
	"parallelspikesim/internal/infer"
	"parallelspikesim/internal/learn"
	"parallelspikesim/internal/netio"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/obs"
	"parallelspikesim/internal/viz"
)

func main() {
	o, err := parseOptions(flag.CommandLine, os.Args[1:])
	if err == nil {
		err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pssim:", err)
		os.Exit(1)
	}
}

// options is everything pssim's flags select. file is the run itself: the
// simulation environment, filled from the flags or replaced whole by
// -config. The rest only shapes how pssim reports and persists the run.
type options struct {
	file     config.File
	format   string // precision override applied after resolution ("" = preset's)
	showMaps int
	progress bool
	savePath string
	loadPath string
	ckpt     checkpointOpts
	ob       obsOpts
}

// parseOptions parses pssim's command line into fs. With -config the file
// replaces every flag it has a key for.
func parseOptions(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	f := &o.file
	fs.StringVar(&f.Data, "data", "digits", "data set: digits | fashion")
	fs.StringVar(&f.MNISTDir, "mnist", "", "directory with real MNIST IDX files (overrides -data)")
	fs.StringVar(&f.Rule, "rule", "stochastic", "learning rule: deterministic | stochastic")
	fs.StringVar(&f.Preset, "preset", "float32", "Table I preset: 2bit|4bit|8bit|16bit|float32|highfreq")
	fs.StringVar(&o.format, "format", "", "precision override: q0.2 | q0.4 | q1.7 | q1.15 | float32 (\"\" = preset's format)")
	fs.StringVar(&f.Rounding, "rounding", "", "rounding override: truncation | nearest | stochastic")
	fs.IntVar(&f.Neurons, "neurons", 100, "first-layer neurons")
	fs.IntVar(&f.TrainImages, "train", 2000, "training images")
	fs.IntVar(&f.LabelImages, "label", 300, "labeling images (paper: 1000)")
	fs.IntVar(&f.InferImages, "infer", 500, "inference images (paper: 9000)")
	fs.Float64Var(&f.TLearnMS, "tlearn", 0, "presentation time ms (0 = preset)")
	fs.IntVar(&f.Workers, "workers", 0, "engine workers for the held-out evaluation fan-out (0 = GOMAXPROCS, 1 = sequential); training runs inline")
	fs.Uint64Var(&f.Seed, "seed", 7, "master seed")
	fs.IntVar(&o.showMaps, "maps", 0, "print N conductance maps after training")
	fs.BoolVar(&o.progress, "progress", true, "print moving error during training")
	cfgPath := fs.String("config", "", "JSON simulation-environment file (replaces the data, model and image-count flags; -format still applies)")
	fs.StringVar(&o.savePath, "save", "", "save the trained network snapshot to this file")
	fs.StringVar(&o.loadPath, "load", "", "load a trained snapshot instead of training")
	fs.StringVar(&o.ckpt.Path, "checkpoint", "", "write training checkpoints to this file (enables Ctrl-C safe interruption)")
	fs.IntVar(&o.ckpt.Every, "checkpoint-every", 500, "checkpoint every N training images")
	fs.BoolVar(&o.ckpt.Resume, "resume", false, "resume training from the -checkpoint file if it exists")
	fs.StringVar(&o.ob.Metrics, "metrics", "", "dump metrics to this file, or - for stdout (Prometheus text; *.json for JSON)")
	fs.IntVar(&o.ob.Every, "metrics-every", 0, "also refresh the -metrics dump every N training images (0 = only at exit)")
	fs.StringVar(&o.ob.Pprof, "pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if *cfgPath != "" {
		file, err := config.Load(*cfgPath)
		if err != nil {
			return options{}, err
		}
		o.file = file
	}
	return o, nil
}

// resolve builds the network configuration and learning options the run
// trains with, for images of numInputs pixels.
func (o options) resolve(numInputs int) (config.Resolved, error) {
	res, err := o.file.Resolve(numInputs)
	if err != nil || o.format == "" {
		return res, err
	}
	if res.Net.Syn.Format, err = fixed.ParseFormat(o.format); err != nil {
		return config.Resolved{}, err
	}
	return res, nil
}

// checkpointOpts configures crash-safe training: periodic snapshots of the
// full trainer state, interruption on SIGINT/SIGTERM, and resumption.
type checkpointOpts struct {
	Path   string
	Every  int
	Resume bool
}

// obsOpts configures the observability surface: metric dumps and pprof.
type obsOpts struct {
	Metrics string // dump target: "" = off, "-" = stdout, else a file path
	Every   int    // refresh the dump every N training images (0 = exit only)
	Pprof   string // pprof listen address ("" = off)
}

// registry builds the obs registry the run needs, or nil when observability
// is off so instrumentation stays free.
func (o obsOpts) registry() *obs.Registry {
	if o.Metrics == "" && o.Pprof == "" {
		return nil
	}
	return obs.NewRegistry()
}

// dump writes the current snapshot to the -metrics target. Prometheus text
// by default; JSON when the path ends in .json.
func (o obsOpts) dump(reg *obs.Registry) error {
	if o.Metrics == "" || reg == nil {
		return nil
	}
	snap := reg.Snapshot()
	if o.Metrics == "-" {
		return snap.WritePrometheus(os.Stdout)
	}
	f, err := os.Create(o.Metrics)
	if err != nil {
		return err
	}
	if strings.HasSuffix(o.Metrics, ".json") {
		err = snap.WriteJSON(f)
	} else {
		err = snap.WritePrometheus(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func run(o options) error {
	f, ckpt, ob := o.file, o.ckpt, o.ob
	if err := f.Validate(); err != nil {
		return err
	}
	if ckpt.Resume && ckpt.Path == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	if ckpt.Path != "" && ckpt.Every <= 0 {
		return fmt.Errorf("-checkpoint-every must be positive, got %d", ckpt.Every)
	}
	if ob.Every < 0 {
		return fmt.Errorf("-metrics-every must be non-negative, got %d", ob.Every)
	}
	if ob.Every > 0 && ob.Metrics == "" {
		return fmt.Errorf("-metrics-every requires -metrics")
	}

	reg := ob.registry()
	if ob.Pprof != "" {
		ln := ob.Pprof
		//psslint:detached opt-in pprof debug listener; serves until the process exits
		go func() {
			if err := http.ListenAndServe(ln, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pssim: pprof server:", err)
			}
		}()
		fmt.Printf("pprof listening on %s\n", ln)
	}

	var train, test *dataset.Dataset
	nTest := f.LabelImages + f.InferImages
	switch {
	case f.MNISTDir != "":
		var err error
		if train, test, err = dataset.LoadMNISTDir(f.MNISTDir); err != nil {
			return err
		}
		if f.TrainImages < train.Len() {
			train = train.Subset(0, f.TrainImages)
		}
	case f.Data == "digits":
		train = dataset.SynthDigits(f.TrainImages, f.Seed)
		test = dataset.SynthDigits(nTest, f.Seed+1000)
	case f.Data == "fashion":
		train = dataset.SynthFashion(f.TrainImages, f.Seed)
		test = dataset.SynthFashion(nTest, f.Seed+1000)
	}
	if test.Len() > nTest {
		test = test.Subset(0, nTest)
	}

	res, err := o.resolve(train.Pixels())
	if err != nil {
		return err
	}
	cfg, opts := res.Net, res.Learn
	// The pool sizes only the held-out evaluation's batch fan-out below: a
	// dense network runs every training step inline. It is built and
	// instrumented up front so that every metrics dump, mid-run ones too,
	// lists the engine's series.
	w := res.Workers
	if w == 0 {
		w = engine.Auto // CLI convention: 0 means all cores
	}
	exec := engine.New(w)
	defer exec.Close()
	engine.Instrument(exec, reg)
	net, err := network.New(cfg, network.WithObserver(reg))
	if err != nil {
		return err
	}

	fmt.Printf("pssim: %s / %s / %s rounding=%s | %d inputs × %d neurons | band %.0f-%.0f Hz, %.0f ms/image\n",
		train.Name, cfg.Syn.Kind, cfg.Syn.Format, cfg.Syn.Rounding,
		train.Pixels(), cfg.NumNeurons, opts.Control.Band.MinHz, opts.Control.Band.MaxHz, opts.Control.TLearnMS)

	opts.NumClasses = train.NumClasses
	tr, err := learn.New(net, opts)
	if err != nil {
		return err
	}
	start := time.Now()
	if o.loadPath != "" {
		snap, err := netio.LoadFile(o.loadPath)
		if err != nil {
			return err
		}
		if err := snap.Restore(net); err != nil {
			return err
		}
		fmt.Printf("loaded trained snapshot from %s (training skipped)\n", o.loadPath)
	} else {
		if ckpt.Resume {
			switch snap, err := netio.LoadFile(ckpt.Path); {
			case os.IsNotExist(err):
				fmt.Printf("no checkpoint at %s yet, starting fresh\n", ckpt.Path)
			case err != nil:
				return fmt.Errorf("resume: %w", err)
			case snap.Trainer == nil:
				return fmt.Errorf("resume: %s is a plain model snapshot without training progress", ckpt.Path)
			default:
				if err := snap.Restore(net); err != nil {
					return fmt.Errorf("resume: %w", err)
				}
				if err := tr.RestoreState(snap.Trainer); err != nil {
					return fmt.Errorf("resume: %w", err)
				}
				fmt.Printf("resumed from %s at image %d/%d\n", ckpt.Path, tr.ImagesSeen, train.Len())
			}
		}
		if ckpt.Path != "" {
			tr.CheckpointEvery = ckpt.Every
			tr.Checkpoint = func() error {
				return netio.SaveFile(ckpt.Path, netio.CaptureCheckpoint(net, tr))
			}
			var interrupted atomic.Bool
			tr.Interrupted = interrupted.Load
			sigc := make(chan os.Signal, 1)
			signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
			defer signal.Stop(sigc)
			go func() {
				s := <-sigc
				interrupted.Store(true)
				// A second signal kills the process the default way.
				signal.Stop(sigc)
				fmt.Fprintf(os.Stderr, "\npssim: %v — finishing current image and checkpointing (signal again to force quit)\n", s)
			}()
		}
		err = tr.Train(train, func(i int, movingErr float64) {
			if o.progress && (i+1)%500 == 0 {
				fmt.Printf("  trained %5d/%d images, moving error %.1f%%, elapsed %v\n",
					i+1, train.Len(), 100*movingErr, time.Since(start).Round(time.Second))
			}
			if ob.Every > 0 && ob.Metrics != "-" && (i+1)%ob.Every == 0 {
				if derr := ob.dump(reg); derr != nil {
					fmt.Fprintln(os.Stderr, "pssim: metrics dump:", derr)
				}
			}
		})
		if errors.Is(err, learn.ErrInterrupted) {
			fmt.Printf("interrupted at image %d/%d; progress saved to %s — rerun with -resume to continue\n",
				tr.ImagesSeen, train.Len(), ckpt.Path)
			return ob.dump(reg)
		}
		if err != nil {
			return err
		}
	}
	trainWall := time.Since(start)

	labelSet, inferSet := test.LabelInferSplit(f.LabelImages)
	model, err := tr.Label(labelSet)
	if err != nil {
		return err
	}
	// Held-out accuracy runs through the serving path: the trained state is
	// snapshotted exactly as -save writes it, loaded into the frozen-weight
	// inference engine, and evaluated with the same batched classifier
	// psserve exposes — so the accuracy printed here is the accuracy a
	// served copy of this model delivers.
	eng, err := infer.FromSnapshot(netio.Capture(net, model), cfg, opts.Control, train.NumClasses,
		infer.WithExecutor(exec), infer.WithObserver(reg))
	if err != nil {
		return err
	}
	conf, err := learn.EvaluateClassifier(eng, inferSet, train.NumClasses)
	if err != nil {
		return err
	}
	if o.savePath != "" {
		if err := netio.SaveFile(o.savePath, netio.Capture(net, model)); err != nil {
			return err
		}
		fmt.Printf("saved trained snapshot to %s\n", o.savePath)
	}

	fmt.Printf("\naccuracy: %.2f%% (%d/%d, %d unclassified)\n",
		100*conf.Accuracy(), conf.Correct(), conf.Total(), conf.Misses())
	fmt.Printf("training wall clock: %v (%d boost re-presentations)\n", trainWall.Round(time.Millisecond), tr.BoostCount)
	fmt.Printf("confusion matrix:\n%s", conf.String())

	if o.showMaps > 0 {
		fmt.Println("\nconductance maps (strongest receptive fields):")
		rf := make([]float64, train.Pixels())
		var tiles []string
		for n := 0; n < o.showMaps && n < cfg.NumNeurons; n++ {
			net.Syn.Column(n, rf)
			tile, err := viz.ConductanceASCII(rf, train.Width, train.Height)
			if err != nil {
				return err
			}
			tiles = append(tiles, tile)
		}
		fmt.Println(viz.TileGrid(tiles, 4))
	}
	return ob.dump(reg)
}
