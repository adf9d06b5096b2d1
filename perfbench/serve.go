package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/engine"
	"parallelspikesim/internal/infer"
	"parallelspikesim/internal/learn"
	"parallelspikesim/internal/netio"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/registry"
	"parallelspikesim/internal/rng"
	"parallelspikesim/internal/synapse"
)

// Serving workloads: psserve -preset highfreq with default flags, serving a
// 784×1000 float32 fixture trained from the seed before timing. (psserve
// has no -format flag, so a Q1.7 model cannot be served yet.)
const (
	serveNeurons = 1000
	serveClasses = 10
	psserveSeed  = 7 // psserve's -seed default, which its engines are built with

	fixtureTrain = 200 // fixture training images
	fixtureLabel = 100 // fixture labeling images

	classifyRate = 100.0 // open-loop offered rate, requests/s
	batchShare   = 32    // one request in batchShare carries batchImages images
	batchImages  = 8
	poolSingles  = 32 // distinct single-image bodies
	poolBatches  = 4  // distinct batchImages-image bodies

	openShare       = 1.0 // serve-classify: share of -seconds spent in the open loop
	closedPerSec    = 48  // serve-classify: closed-loop batchImages-image requests per nominal second
	closedConns     = 1   // leaves a core free, so background work does not queue behind the server
	classifySlices  = 10  // serve-classify: open-loop segments, each followed by a closed-loop slice
	reloadsPerSlice = 3   // serve-classify: hot reloads timed after each closed-loop slice

	reqTimeout  = 10 * time.Second // client timeout; a request over it is a miss
	maxLagP99Ms = 20.0             // generator lateness beyond which a run is invalid
	spanRepeats = 3                // in-process layer spans (load, stage, save) medianed
)

// servePreset mirrors psserve's presetSetup for -preset highfreq with
// default flags: the stochastic rule, the preset's float32 format, seed 7
// and the 5–78 Hz / 100 ms control.
func servePreset() (synapse.Config, encode.Control, error) {
	kind, err := synapse.ParseRule("stochastic")
	if err != nil {
		return synapse.Config{}, encode.Control{}, err
	}
	syn, _, err := synapse.PresetConfig(synapse.PresetHighFreq, kind)
	if err != nil {
		return synapse.Config{}, encode.Control{}, err
	}
	syn.Seed = psserveSeed
	return syn, encode.HighFrequencyControl(), nil
}

func serveNetConfig() (network.Config, encode.Control, error) {
	syn, ctl, err := servePreset()
	if err != nil {
		return network.Config{}, ctl, err
	}
	return network.DefaultConfig(28*28, serveNeurons, syn), ctl, nil
}

// derive gives each input family of a run its own stream of the seed.
func derive(seed uint64, family uint64) uint64 { return rng.Hash64(seed, 0xbe7c4, family) }

// buildFixture trains and labels the served model: pssim's pipeline on
// SynthDigits drawn from the seed, saved as psserve loads it.
func buildFixture(seed uint64) (*netio.Snapshot, error) {
	cfg, ctl, err := serveNetConfig()
	if err != nil {
		return nil, err
	}
	ex := engine.New(engine.Auto)
	defer ex.Close()
	// Lazy plasticity is bit-identical to dense and builds the fixture faster.
	net, err := network.New(cfg, network.WithExecutor(ex), network.WithPlasticity(network.LazyPlasticity))
	if err != nil {
		return nil, err
	}
	lopts := learn.DefaultOptions()
	lopts.Control = ctl
	lopts.NumClasses = serveClasses
	lt, err := learn.New(net, lopts)
	if err != nil {
		return nil, err
	}
	if err := lt.Train(dataset.SynthDigits(fixtureTrain, derive(seed, 1)), nil); err != nil {
		return nil, err
	}
	model, err := lt.Label(dataset.SynthDigits(fixtureLabel, derive(seed, 2)))
	if err != nil {
		return nil, err
	}
	return netio.Capture(net, model), nil
}

// newEngine builds an in-process reference engine the way psserve's
// registry builder does.
func newEngine(snap *netio.Snapshot) (*infer.Engine, error) {
	cfg, ctl, err := serveNetConfig()
	if err != nil {
		return nil, err
	}
	return infer.FromSnapshot(snap, cfg, ctl, serveClasses)
}

// body is one pre-encoded /classify request.
type body struct {
	images [][]uint8
	req    []byte
}

// imagesJSON renders images as the JSON arrays of numbers the API takes.
func imagesJSON(images [][]uint8) []byte {
	b := []byte(`[`)
	for i, img := range images {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, pixelsJSON(img)...)
	}
	return append(b, ']')
}

func pixelsJSON(img []uint8) []byte {
	b := []byte{'['}
	for j, px := range img {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(px), 10)
	}
	return append(b, ']')
}

// classifyBodies draws the request pool: poolSingles single-image bodies
// followed by poolBatches batchImages-image bodies, on held-out images.
func classifyBodies(seed uint64) []body {
	ds := dataset.SynthDigits(poolSingles+poolBatches*batchImages, derive(seed, 3))
	var out []body
	add := func(imgs [][]uint8) {
		js := append(append([]byte(`{"images":`), imagesJSON(imgs)...), '}')
		out = append(out, body{images: imgs, req: encodeRequest("POST", "/classify", js)})
	}
	for i := 0; i < poolSingles; i++ {
		add(ds.Images[i : i+1])
	}
	for k := 0; k < poolBatches; k++ {
		lo := poolSingles + k*batchImages
		add(ds.Images[lo : lo+batchImages])
	}
	return out
}

// classifySchedule lays out n open-loop requests at classifyRate: evenly
// spaced, mostly single images with one in batchShare a batch.
func classifySchedule(seed uint64, n int) (due []time.Duration, pick []int) {
	r := rand.New(rand.NewPCG(seed, derive(seed, 4)))
	due, pick = make([]time.Duration, n), make([]int, n)
	for i := range due {
		due[i] = time.Duration(float64(i) * float64(time.Second) / classifyRate)
		if r.IntN(batchShare) == 0 {
			pick[i] = poolSingles + r.IntN(poolBatches)
		} else {
			pick[i] = r.IntN(poolSingles)
		}
	}
	return due, pick
}

// psserve is one launch of the server under test.
type psserve struct {
	cmd     *exec.Cmd
	addr    string
	setup   time.Duration // exec until the first /healthz 200
	exited  chan error
	log     *os.File
	stopped bool
	stopErr error
}

// startPsserve launches psserve on a free loopback port and waits until
// /healthz answers 200.
func startPsserve(cfg runConfig, args ...string) (*psserve, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.OpenFile(filepath.Join(cfg.workDir, "psserve.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(cfg.binDir, "psserve"), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = dieWithParent()
	p := &psserve{cmd: cmd, addr: addr, exited: make(chan error, 1), log: logf}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() { p.exited <- cmd.Wait() }()
	if err := p.waitHealthy(start); err != nil {
		p.stop()
		return nil, err
	}
	p.setup = time.Since(start)
	return p, nil
}

var healthz = encodeRequest("GET", "/healthz", nil)

func (p *psserve) waitHealthy(start time.Time) error {
	for time.Since(start) < 60*time.Second {
		select {
		case err := <-p.exited:
			p.exited <- err // keep it for stop
			return fmt.Errorf("psserve exited during startup (%v); see psserve.log", err)
		default:
		}
		c := newClient(p.addr)
		status, _, err := c.do(healthz, time.Second)
		c.close()
		if err == nil && status == 200 {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("psserve not healthy after 60s")
}

// stop drains psserve with SIGTERM (SIGKILL after 20 s) and waits for it.
// Later calls return the first call's result.
func (p *psserve) stop() error {
	if p.stopped {
		return p.stopErr
	}
	p.stopped = true
	defer p.log.Close()
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case p.stopErr = <-p.exited:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
		p.stopErr = fmt.Errorf("psserve ignored SIGTERM for 20s")
	}
	return p.stopErr
}

func (p *psserve) cpu() (time.Duration, error) { return procCPU(p.cmd.Process.Pid) }

// scrape reads /metrics; only traced runs call it, at phase boundaries.
func (p *psserve) scrape() (promSample, error) {
	c := newClient(p.addr)
	defer c.close()
	status, b, err := c.do(encodeRequest("GET", "/metrics", nil), reqTimeout)
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	return parseProm(bytes.NewReader(b))
}

// launchSetups starts psserve setupRepeats times and returns the last
// launch, still running, with the median setup time of all of them.
func launchSetups(cfg runConfig, args func(i int) []string) (*psserve, float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		p, err := startPsserve(cfg, args(i)...)
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, p.setup.Seconds())
		if i == setupRepeats-1 {
			return p, median(setups), nil
		}
		if err := p.stop(); err != nil {
			return nil, 0, fmt.Errorf("psserve setup launch %d: %w", i, err)
		}
	}
}

// classifyResponse is psserve's /classify answer.
type classifyResponse struct {
	Generation  uint64             `json:"generation"`
	Predictions []infer.Prediction `json:"predictions"`
}

// references computes, lazily and once per (generation, body), what
// in-process inference predicts for a request body.
type references struct {
	bodies  []body
	engines func(gen uint64) (*infer.Engine, error)
	cache   map[[2]uint64][]infer.Prediction
}

func (r *references) expect(gen uint64, b int) ([]infer.Prediction, error) {
	key := [2]uint64{gen, uint64(b)}
	if p, ok := r.cache[key]; ok {
		return p, nil
	}
	eng, err := r.engines(gen)
	if err != nil {
		return nil, err
	}
	p, err := eng.PredictBatch(r.bodies[b].images)
	if err != nil {
		return nil, err
	}
	r.cache[key] = p
	return p, nil
}

// checkClassify verifies every classify shot: non-2xx, transport errors
// and timeouts are failures; a 2xx whose predictions differ from in-process
// inference on the generation that answered is a failure and a correctness
// violation. It returns each shot's latency in ms (+Inf for a failure) and
// generation (0 for a failure).
func checkClassify(shots []shot, refs *references, out *outcome) ([]float64, []uint64, error) {
	lat := make([]float64, len(shots))
	gens := make([]uint64, len(shots))
	for i, s := range shots {
		out.attempted++
		lat[i] = math.Inf(1)
		if !s.ok() {
			out.failed++
			continue
		}
		var resp classifyResponse
		if err := json.Unmarshal(s.Body, &resp); err != nil {
			out.failed++
			out.violate("classify response %d: %v", i, err)
			continue
		}
		want, err := refs.expect(resp.Generation, s.Req)
		if err != nil {
			return nil, nil, err
		}
		if !reflect.DeepEqual(resp.Predictions, want) {
			out.failed++
			out.violate("classify response %d (generation %d, body %d) differs from in-process inference", i, resp.Generation, s.Req)
			continue
		}
		lat[i], gens[i] = ms(s.latency()), resp.Generation
	}
	return lat, gens, nil
}

// quietLatencies keeps the latencies of the shots that fell due in a quiet
// window.
func quietLatencies(shots []shot, lat []float64, q quietSet) []float64 {
	var out []float64
	for i, s := range shots {
		if q.contains(s.Due) {
			out = append(out, lat[i])
		}
	}
	return out
}

// interval is one stretch of a measured phase: offsets from the phase's
// start, the shots [Lo, Hi) sent in it, and the share of the CPU time the
// machine wanted meanwhile that the hypervisor took.
type interval struct {
	From, To time.Duration
	Lo, Hi   int
	Steal    float64
}

// sliceGoodput is the rate of correctly classified images over the
// least-stolen half of the closed-loop slices, per second of their wall
// time, for requests of perShot images each; lat is +Inf for a failed
// shot.
func sliceGoodput(slices []interval, lat []float64, perShot int) float64 {
	steal := make([]float64, len(slices))
	for k, iv := range slices {
		steal[k] = iv.Steal
	}
	n, wall := 0, time.Duration(0)
	for _, k := range quietest(steal) {
		iv := slices[k]
		for _, l := range lat[iv.Lo:iv.Hi] {
			if !math.IsInf(l, 1) {
				n++
			}
		}
		wall += iv.To - iv.From
	}
	return float64(n*perShot) / wall.Seconds()
}

// quietGoodput is the rate of correct answers to requests due in quiet
// windows, per second of those windows; lat is +Inf for a failed shot.
// Counting by due time rather than completion keeps a backlog that drains
// into a quiet window after a stall from inflating the rate.
func quietGoodput(shots []shot, lat []float64, q quietSet) float64 {
	n := 0
	for i, s := range shots {
		if !math.IsInf(lat[i], 1) && q.contains(s.Due) {
			n++
		}
	}
	return float64(n) / q.duration().Seconds()
}

// layerSpans times the netio and registry calls psserve's startup makes,
// in-process on the fixture file: netio.LoadFile and registry.Stage with
// psserve's builder.
func layerSpans(path string, m map[string]float64) error {
	cfg, ctl, err := serveNetConfig()
	if err != nil {
		return err
	}
	ex := engine.New(engine.Auto)
	defer ex.Close()
	reg, err := registry.New(func(s *netio.Snapshot) (registry.Engine, error) {
		return infer.FromSnapshot(s, cfg, ctl, serveClasses, infer.WithExecutor(ex))
	}, serveClasses)
	if err != nil {
		return err
	}
	var load, stage []float64
	for i := 0; i < spanRepeats; i++ {
		t0 := time.Now()
		snap, err := netio.LoadFile(path)
		t1 := time.Now()
		if err != nil {
			return err
		}
		if _, err := reg.Stage(snap); err != nil {
			return err
		}
		load, stage = append(load, ms(t1.Sub(t0))), append(stage, ms(time.Since(t1)))
	}
	m["netio.load_ms"], m["registry.stage_ms"] = median(load), median(stage)
	return nil
}

// servingLayers fills the psserve / infer / engine per-layer metrics from
// two scrapes around a timed window whose classify requests are shots and
// whose operations number ops.
func servingLayers(m map[string]float64, before, after promSample, shots []shot, ops int) error {
	var err error
	if m["psserve.classify_ms"], err = timerMeanMs(before, after, "psserve_http_classify_ns"); err != nil {
		return err
	}
	var sent []float64
	for _, s := range shots {
		if s.ok() {
			sent = append(sent, ms(s.Done-s.Sent))
		}
	}
	m["psserve.self_ms"] = mean(sent) - m["psserve.classify_ms"]
	if m["infer.forward_ms"], err = timerMeanMs(before, after, "infer_forward_ns"); err != nil {
		return err
	}
	imgs, err := delta(before, after, "infer_images_total")
	if err != nil {
		return err
	}
	reqs, err := delta(before, after, "infer_requests_total")
	if err != nil {
		return err
	}
	if reqs > 0 {
		m["infer.images_per_request"] = imgs / reqs
	}
	for metric, counter := range map[string]string{
		"psserve.degrade_shrunk":    "psserve_degrade_shrunk_total",
		"psserve.degrade_shed":      "psserve_degrade_shed_total",
		"psserve.degrade_saturated": "psserve_degrade_saturated_total",
		"psserve.timeouts":          "psserve_http_timeouts_total",
	} {
		if m[metric], err = delta(before, after, counter); err != nil {
			return err
		}
	}
	calls, err := delta(before, after, "engine_for_calls_total")
	if err != nil {
		return err
	}
	m["engine.for_calls"] = calls / float64(ops)
	return nil
}

// checkLag turns a late generator into an invalid run.
func checkLag(m map[string]float64, open ...[]shot) error {
	lag := lagP99Ms(open...)
	m["client.lag_p99_ms"] = lag
	if lag > maxLagP99Ms {
		return fmt.Errorf("%w: generator lag p99 %.1f ms over the %.0f ms bound", errInvalid, lag, maxLagP99Ms)
	}
	return nil
}

// runServeClassify runs classifySlices rounds of an open-loop segment at
// classifyRate (p50/p99), a closed-loop slice over closedConns connections
// (throughput) and a few timed hot reloads (freshness). Interleaving
// spreads all three over the same stretch of the run, so an episode of
// host contention shifts none of them on its own.
func runServeClassify(cfg runConfig) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics
	snap, err := buildFixture(cfg.seed)
	if err != nil {
		return nil, err
	}
	model := filepath.Join(cfg.workDir, "model.pss")
	if err := netio.SaveFile(model, snap); err != nil {
		return nil, err
	}
	ref, err := newEngine(snap)
	if err != nil {
		return nil, err
	}
	bodies := classifyBodies(cfg.seed)
	refs := &references{bodies: bodies, cache: map[[2]uint64][]infer.Prediction{},
		// Every generation is a reload of the same fixture file.
		engines: func(uint64) (*infer.Engine, error) { return ref, nil }}
	reqs := make([][]byte, len(bodies))
	for i, b := range bodies {
		reqs[i] = b.req
	}
	nOpen := int(classifyRate * openShare * float64(cfg.seconds))
	nClosed := closedPerSec * cfg.seconds
	due, pick := classifySchedule(cfg.seed, nOpen)
	closedPick := make([]int, nClosed)
	r := rand.New(rand.NewPCG(cfg.seed, derive(cfg.seed, 5)))
	for i := range closedPick {
		closedPick[i] = poolSingles + r.IntN(poolBatches)
	}

	srv, setup, err := launchSetups(cfg, func(int) []string {
		return []string{"-load", model, "-preset", "highfreq"}
	})
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	m["setup_s"] = setup
	if err := warmup(srv.addr, reqs); err != nil {
		return nil, err
	}
	rl, err := newReloader(cfg, model, reqs)
	if err != nil {
		return nil, err
	}
	defer rl.stop()

	var tr *tracer
	var m0, m2 promSample
	var chunkB float64 // traced: engine busy time inside the closed-loop slices
	if cfg.traced {
		tr = newTracer()
		if m0, err = srv.scrape(); err != nil {
			return nil, err
		}
	}
	cpu0, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	gen0 := selfCPU()
	c := newClient(srv.addr)
	defer c.close()
	start := time.Now()
	steal, err := newStealSampler(start)
	if err != nil {
		return nil, err
	}
	var open, closed []shot
	var segsA, slicesB []interval
	for k := 0; k < classifySlices; k++ {
		// Open-loop segment k keeps the schedule's spacing, shifted to begin
		// now. Steal windows cover the open-loop segments only.
		lo, hi := k*nOpen/classifySlices, (k+1)*nOpen/classifySlices
		if k > 0 {
			steal.resume()
		}
		t0 := time.Since(start)
		shift := t0 - due[lo]
		segDue := make([]time.Duration, hi-lo)
		for i := range segDue {
			segDue[i] = due[lo+i] + shift
		}
		open = append(open, openLoop(c, start, segDue, pick[lo:hi], reqs, reqTimeout, steal.poll)...)
		segsA = append(segsA, interval{From: t0, To: time.Since(start), Lo: lo, Hi: hi})
		steal.pause()

		var before promSample
		if cfg.traced {
			if before, err = srv.scrape(); err != nil {
				return nil, err
			}
		}
		lo, hi = k*nClosed/classifySlices, (k+1)*nClosed/classifySlices
		h0, err := readHostCPU()
		if err != nil {
			return nil, err
		}
		t0 = time.Since(start)
		closed = append(closed, closedLoop(srv.addr, start, closedConns, hi-lo, closedPick[lo:hi], reqs, reqTimeout, nil)...)
		t1 := time.Since(start)
		h1, err := readHostCPU()
		if err != nil {
			return nil, err
		}
		slicesB = append(slicesB, interval{From: t0, To: t1, Lo: lo, Hi: hi, Steal: h1.stealSince(h0)})
		if cfg.traced {
			after, err := srv.scrape()
			if err != nil {
				return nil, err
			}
			d, err := delta(before, after, "engine_chunk_ns_sum")
			if err != nil {
				return nil, err
			}
			chunkB += d
		}
		if err := rl.reload(reloadsPerSlice); err != nil {
			return nil, err
		}
	}
	win, err := steal.windows, steal.err
	if err != nil {
		return nil, err
	}
	cpu1, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	genCPU := selfCPU() - gen0
	if cfg.traced {
		if m2, err = srv.scrape(); err != nil {
			return nil, err
		}
	}
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("psserve: %w", err)
	}
	if err := rl.stop(); err != nil {
		return nil, err
	}

	latA, _, err := checkClassify(open, refs, out)
	if err != nil {
		return nil, err
	}
	latB, _, err := checkClassify(closed, refs, out)
	if err != nil {
		return nil, err
	}
	if _, _, err := checkClassify(rl.probes, refs, out); err != nil {
		return nil, err
	}
	q := pickQuiet(win)
	noteSteal(m, win, q)
	if err := setLatency(m, quietLatencies(open, latA, q)); err != nil {
		return nil, err
	}
	ops := float64(nOpen + nClosed)
	m["throughput_per_s"] = sliceGoodput(slicesB, latB, batchImages)
	m["cpu_ms_per_op"] = ms(cpu1-cpu0) / ops
	m["peak_rss_mb"] = peakRSSMB(srv.cmd)
	m["freshness_ms"] = iqm(rl.fresh)
	if err := checkLag(m, open); err != nil {
		return nil, err
	}
	if !cfg.traced {
		return out, nil
	}
	m["client.cpu_ms_per_op"] = ms(genCPU) / ops
	if err := servingLayers(m, m0, m2, append(append([]shot(nil), open...), closed...), nOpen+nClosed); err != nil {
		return nil, err
	}
	var wallB time.Duration
	for _, iv := range slicesB {
		wallB += iv.To - iv.From
	}
	m["engine.busy_frac"] = chunkB / (float64(runtime.GOMAXPROCS(0)) * float64(wallB))
	if err := layerSpans(model, m); err != nil {
		return nil, err
	}
	for _, iv := range segsA {
		p := tr.add("phase.open", 0, 0, start.Add(iv.From), start.Add(iv.To))
		tr.addShots("client.classify", p, 1+iv.Lo, start, open[iv.Lo:iv.Hi])
	}
	for _, iv := range slicesB {
		p := tr.add("phase.closed", 0, 0, start.Add(iv.From), start.Add(iv.To))
		tr.addShots("client.classify", p, nOpen+1+iv.Lo, start, closed[iv.Lo:iv.Hi])
	}
	return out, tr.write(traceFile(cfg, "client"))
}

// warmup sends every pool body once, so lazy set-up (scratch pools, page
// faults) is done before timing; the responses are not scored.
func warmup(addr string, reqs [][]byte) error {
	c := newClient(addr)
	defer c.close()
	for i, req := range reqs {
		status, _, err := c.do(req, reqTimeout)
		if err != nil {
			return fmt.Errorf("warmup request %d: %w", i, err)
		}
		if status != 200 {
			return fmt.Errorf("warmup request %d: status %d", i, status)
		}
	}
	return nil
}

var reloadReq = encodeRequest("POST", "/reload", nil)

// reloader times hot reloads of the served model. Each sample runs from
// sending POST /reload until a /classify response tagged with the new
// generation arrives — how long a replaced model file takes to reach
// clients. The reloads run on a psserve launch of their own, idle while
// the measured server takes load, so they leave that server's peak RSS
// alone and can be spread over the whole run.
type reloader struct {
	srv    *psserve
	c      *client
	reqs   [][]byte
	gen    uint64
	fresh  []float64
	probes []shot
}

func newReloader(cfg runConfig, model string, reqs [][]byte) (*reloader, error) {
	srv, err := startPsserve(cfg, "-load", model, "-preset", "highfreq")
	if err != nil {
		return nil, err
	}
	if err := warmup(srv.addr, reqs); err != nil {
		srv.stop()
		return nil, err
	}
	return &reloader{srv: srv, c: newClient(srv.addr), reqs: reqs}, nil
}

// reload times n hot reloads.
func (r *reloader) reload(n int) error {
	for k := 0; k < n; k++ {
		start := time.Now()
		status, b, err := r.c.do(reloadReq, reqTimeout)
		if err != nil {
			return fmt.Errorf("reload %d: %w", len(r.fresh), err)
		}
		if status != 200 {
			return fmt.Errorf("reload %d: status %d: %s", len(r.fresh), status, b)
		}
		s := shot{Req: len(r.probes) % poolSingles}
		s.Status, s.Body, s.Err = r.c.do(r.reqs[s.Req], reqTimeout)
		s.Done = time.Since(start)
		r.probes = append(r.probes, s)
		var resp classifyResponse
		if !s.ok() || json.Unmarshal(s.Body, &resp) != nil || resp.Generation <= r.gen {
			return fmt.Errorf("reload %d: probe did not see a new generation (status %d, %v)", len(r.fresh), s.Status, s.Err)
		}
		r.gen = resp.Generation
		r.fresh = append(r.fresh, ms(s.Done))
	}
	return nil
}

func (r *reloader) stop() error {
	r.c.close()
	if err := r.srv.stop(); err != nil {
		return fmt.Errorf("psserve (reloads): %w", err)
	}
	return nil
}
