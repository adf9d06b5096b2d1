// Command psserve serves trained ParallelSpikeSim models over HTTP: frozen-
// weight inference engines (internal/infer) behind a fault-tolerant model
// registry (internal/registry) and a small JSON API.
//
// Models are PSS2 snapshots saved by pssim with -save after training and
// labeling; psserve refuses unlabeled or corrupt snapshots. The electrical
// constants are rebuilt from the same preset flags pssim trains with, so
// serve with the flags you trained with:
//
//	pssim  -preset highfreq -rule stochastic -train 2000 -save model.pss
//	psserve -load model.pss -preset highfreq -rule stochastic
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/classify -d '{"images": [[0,0,…,255]]}'
//	curl -s localhost:8080/metrics | grep infer_requests_total
//
// With -models DIR instead of -load, every *.pss file in DIR is served as
// a named model under /models/{name}/classify (the file a.pss becomes
// model "a"); -model picks which of them /classify aliases. POST /reload
// — or SIGHUP — rescans the snapshots and atomically hot-swaps any that
// changed: a retrained file becomes the next generation with zero dropped
// requests, and a corrupt or torn file is rejected while the previous
// generation keeps serving. Responses carry the model name and generation
// so clients can audit exactly which snapshot answered.
//
// With -learn, psserve also trains while it serves: POST
// /models/{name}/learn feeds labeled examples to a continual trainer
// (internal/continual) that emits a candidate checkpoint every K examples,
// shadow-evaluates it against the live generation on mirrored traffic, and
// hot-promotes it through the registry when it clears the accuracy gate.
// POST /models/{name}/tune moves the encode band, K and the gate at
// runtime; GET /models/{name}/learn reports the promotion audit trail.
//
// Classification is deterministic: the same pixels against the same
// generation always produce the same prediction, regardless of request
// interleaving or worker count. Request cost is bounded by -max-batch,
// -max-inflight and -timeout; under saturation the server degrades in
// rungs (shrink deadline, shed low-priority, 503) instead of falling off a
// cliff; SIGINT/SIGTERM drain inflight requests before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"parallelspikesim/internal/config"
	"parallelspikesim/internal/continual"
	"parallelspikesim/internal/engine"
	"parallelspikesim/internal/infer"
	"parallelspikesim/internal/learn"
	"parallelspikesim/internal/netio"
	"parallelspikesim/internal/obs"
	"parallelspikesim/internal/registry"
)

// options collects every knob main parses; run consumes it whole.
type options struct {
	addr      string
	load      string // single snapshot to serve (mutually exclusive with modelsDir)
	modelsDir string // directory of *.pss snapshots to serve by name
	modelName string // registry name for -load / default model for /classify

	model   config.Model // how the models were trained: rule, preset, rounding, seed, tlearn
	classes int
	workers int

	sc serverConfig

	learn         bool    // enable train-while-serve for the default model
	learnDir      string  // checkpoint dir ("" = models dir, else dir of -load)
	learnEvery    int     // candidate cadence K
	learnQueue    int     // ingest queue bound
	learnShadow   int     // mirrored-sample size for shadow eval
	learnMinDelta float64 // promotion gate accuracy delta
	learnMinHz    float64 // initial encode band override (0 = preset band)
	learnMaxHz    float64

	readHeaderTimeout time.Duration
	readTimeout       time.Duration
	idleTimeout       time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.StringVar(&o.load, "load", "", "trained PSS2 snapshot to serve (this or -models is required)")
	flag.StringVar(&o.modelsDir, "models", "", "directory of *.pss snapshots to serve as named models")
	flag.StringVar(&o.modelName, "model", "default", "model name for -load, and the model /classify resolves to")
	flag.StringVar(&o.model.Rule, "rule", "stochastic", "learning rule the models were trained with: deterministic | stochastic")
	flag.StringVar(&o.model.Preset, "preset", "float32", "Table I preset the models were trained with: 2bit|4bit|8bit|16bit|float32|highfreq")
	flag.StringVar(&o.model.Rounding, "rounding", "", "rounding override used at training time: truncation | nearest | stochastic")
	flag.Uint64Var(&o.model.Seed, "seed", 7, "master seed the models were trained with")
	flag.IntVar(&o.classes, "classes", 10, "class arity of the label tables")
	flag.Float64Var(&o.model.TLearnMS, "tlearn", 0, "presentation time ms (0 = preset)")
	flag.IntVar(&o.workers, "workers", 0, "engine workers for batch fan-out (0 = GOMAXPROCS, 1 = sequential)")
	flag.DurationVar(&o.sc.timeout, "timeout", 10*time.Second, "healthy per-request deadline (the ladder may shrink it under load)")
	flag.IntVar(&o.sc.maxBatch, "max-batch", 256, "images per /classify request")
	flag.IntVar(&o.sc.maxInflight, "max-inflight", 4, "concurrent classification requests")
	flag.IntVar(&o.sc.shrinkAt, "shrink-at", 0, "busy slots at which the deadline shrinks (0 = half of -max-inflight)")
	flag.BoolVar(&o.learn, "learn", false, "enable train-while-serve: POST /models/{name}/learn feeds the default model's continual trainer")
	flag.StringVar(&o.learnDir, "learn-dir", "", "directory for continual-learning checkpoints (default: -models dir, else the -load snapshot's dir)")
	flag.IntVar(&o.learnEvery, "learn-every", 64, "emit and shadow-evaluate a candidate every K trained examples")
	flag.IntVar(&o.learnQueue, "learn-queue", 256, "bounded ingest queue size; overflow is shed with 429")
	flag.IntVar(&o.learnShadow, "learn-shadow", 64, "mirrored traffic sample size for shadow evaluation")
	flag.Float64Var(&o.learnMinDelta, "learn-min-delta", 0, "promotion gate: candidate accuracy must beat live by at least this delta")
	flag.Float64Var(&o.learnMinHz, "learn-min-hz", 0, "initial encode band lower edge for online training (0 = preset band)")
	flag.Float64Var(&o.learnMaxHz, "learn-max-hz", 0, "initial encode band upper edge for online training (0 = preset band)")
	flag.DurationVar(&o.readHeaderTimeout, "read-header-timeout", 5*time.Second, "time a client gets to send the request headers")
	flag.DurationVar(&o.readTimeout, "read-timeout", 15*time.Second, "time a client gets to send the whole request")
	flag.DurationVar(&o.idleTimeout, "idle-timeout", 60*time.Second, "time an idle keep-alive connection is kept open")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "psserve:", err)
		os.Exit(1)
	}
}

// newBuilder compiles the model flags into a registry.Builder: every
// (re)loaded snapshot is resolved at its own geometry and assembled into an
// engine exactly as pssim's serving-path evaluation does, so served
// predictions match the accuracy pssim reported.
func newBuilder(m config.Model, classes int, exec engine.Executor, reg *obs.Registry) (registry.Builder, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return func(snap *netio.Snapshot) (registry.Engine, error) {
		cfg, ctl, err := m.Resolve(snap.NumInputs, snap.NumNeurons)
		if err != nil {
			return nil, err
		}
		return infer.FromSnapshot(snap, cfg, ctl, classes,
			infer.WithExecutor(exec), infer.WithObserver(reg))
	}, nil
}

// newLearner builds, from the same model flags the serving engines use, a
// continual trainer seeded with the default model's snapshot. The trainer
// gets a private network (lazy plasticity, sequential executor) so online
// presentations never contend with batch fan-out, and its checkpoints —
// base replay anchor and candidates — live in o.learnDir.
func newLearner(o options, models *registry.Registry, reg *obs.Registry) (*continual.Trainer, error) {
	m, ok := models.Get(o.modelName)
	if !ok {
		return nil, fmt.Errorf("learn: default model %q is not loaded", o.modelName)
	}
	if m.Path == "" {
		return nil, fmt.Errorf("learn: model %q has no backing snapshot", o.modelName)
	}
	base, err := netio.LoadFile(m.Path)
	if err != nil {
		return nil, fmt.Errorf("learn: loading base snapshot: %w", err)
	}
	netCfg, ctl, err := o.model.Resolve(base.NumInputs, base.NumNeurons)
	if err != nil {
		return nil, err
	}
	dir := o.learnDir
	if dir == "" {
		dir = o.modelsDir
	}
	if dir == "" {
		dir = filepath.Dir(o.load)
	}
	tune := continual.DefaultTune()
	tune.MinHz, tune.MaxHz = ctl.Band.MinHz, ctl.Band.MaxHz
	if o.learnMinHz > 0 {
		tune.MinHz = o.learnMinHz
	}
	if o.learnMaxHz > 0 {
		tune.MaxHz = o.learnMaxHz
	}
	tune.EmitEvery = o.learnEvery
	tune.MinDelta = o.learnMinDelta
	tune.ShadowSample = o.learnShadow

	lopts := learn.DefaultOptions()
	lopts.Control = ctl
	lopts.NumClasses = o.classes
	cfg := continual.Config{
		Name:      o.modelName,
		Dir:       dir,
		QueueSize: o.learnQueue,
		Tune:      tune,
	}
	return continual.New(cfg, netCfg, lopts, base, models, continual.WithObserver(reg))
}

// loadModels seeds the registry: a directory scan in -models mode, one
// named load in -load mode. At least one model must come up servable.
func loadModels(models *registry.Registry, o options) error {
	if o.load != "" && o.modelsDir != "" {
		return errors.New("use -load or -models, not both")
	}
	if o.modelsDir != "" {
		rep := models.Rescan(o.modelsDir)
		for _, res := range rep {
			if res.Err != nil {
				fmt.Fprintf(os.Stderr, "psserve: skipping model %q: %v\n", res.Name, res.Err)
			}
		}
		if len(models.Names()) == 0 {
			return fmt.Errorf("no servable *%s snapshots in %s", registry.ModelExt, o.modelsDir)
		}
		return nil
	}
	if o.load == "" {
		return errors.New("-load or -models is required: train a model with `pssim -save model.pss` first")
	}
	_, err := models.Load(o.modelName, o.load)
	return err
}

// newHTTPServer hardens the listener against slow clients: a trickling
// sender is cut off by the header/read timeouts and an idle keep-alive
// connection cannot hold a socket forever — without these a slowloris
// client pins connections indefinitely.
func newHTTPServer(addr string, h http.Handler, o options) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: o.readHeaderTimeout,
		ReadTimeout:       o.readTimeout,
		IdleTimeout:       o.idleTimeout,
		// Responses are small; the write window covers the request deadline
		// plus serialization.
		WriteTimeout: o.sc.timeout + 5*time.Second,
	}
}

func run(o options) error {
	switch {
	case o.readHeaderTimeout <= 0:
		return fmt.Errorf("read-header-timeout %v", o.readHeaderTimeout)
	case o.readTimeout <= 0:
		return fmt.Errorf("read-timeout %v", o.readTimeout)
	case o.idleTimeout <= 0:
		return fmt.Errorf("idle-timeout %v", o.idleTimeout)
	}
	w := o.workers
	if w == 0 {
		w = engine.Auto // CLI convention: 0 means all cores
	}
	exec := engine.New(w)
	defer exec.Close()
	reg := obs.NewRegistry()
	engine.Instrument(exec, reg)

	build, err := newBuilder(o.model, o.classes, exec, reg)
	if err != nil {
		return err
	}
	models, err := registry.New(build, o.classes, registry.WithObserver(reg))
	if err != nil {
		return err
	}
	if err := loadModels(models, o); err != nil {
		return err
	}
	learners := map[string]*continual.Trainer{}
	if o.learn {
		tr, err := newLearner(o, models, reg)
		if err != nil {
			return err
		}
		if err := tr.Start(); err != nil {
			return err
		}
		defer tr.Close()
		learners[o.modelName] = tr
		tune := tr.Tune()
		fmt.Printf("psserve: continual learning enabled for %q (band %g-%g Hz, K=%d, gate %+g, shadow %d)\n",
			o.modelName, tune.MinHz, tune.MaxHz, tune.EmitEvery, tune.MinDelta, tune.ShadowSample)
	}

	o.sc.defaultModel = o.modelName
	o.sc.modelsDir = o.modelsDir
	handler, err := newHandler(models, learners, reg, o.sc)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	srv := newHTTPServer(o.addr, handler, o)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP is the operator's hot-reload: rescan the snapshots and swap in
	// whatever validates, exactly like POST /reload.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			rep := models.Rescan(o.modelsDir)
			for _, res := range rep {
				if res.Err != nil {
					fmt.Printf("psserve: SIGHUP reload %q failed (generation %d keeps serving): %v\n", res.Name, res.Gen, res.Err)
				} else {
					fmt.Printf("psserve: SIGHUP reload %q now at generation %d\n", res.Name, res.Gen)
				}
			}
		}
	}()

	for _, m := range models.Models() {
		fmt.Printf("psserve: serving model %q generation %d (%d inputs, %d classes) from %s\n",
			m.Name, m.Gen, m.Engine.NumInputs(), m.Engine.NumClasses(), m.Path)
	}
	fmt.Printf("psserve: listening on %s\n", o.addr)

	err = serve(ctx, srv, ln, o.sc.timeout+5*time.Second)
	if err == nil {
		fmt.Println("psserve: drained, bye")
	}
	return err
}

// serve runs srv on ln until ctx is canceled, then shuts down gracefully:
// the listener closes (new connections are refused), inflight requests get
// up to drain to finish, and only then does serve return. Extracted from
// run so the drain contract is testable without signals.
func serve(ctx context.Context, srv *http.Server, ln net.Listener, drain time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Println("psserve: shutting down, draining inflight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
