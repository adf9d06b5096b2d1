package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/engine"
	"parallelspikesim/internal/fixed"
	"parallelspikesim/internal/learn"
	"parallelspikesim/internal/netio"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/obs"
	"parallelspikesim/internal/synapse"
)

// train-fast sizing: the paper's headline operating point, 784 inputs ×
// 1000 neurons at Q1.7 and 5–78 Hz / 100 ms, on a fixed image count.
const (
	trainNeurons      = 1000
	trainImagesPerSec = 150 // images per nominal second of -seconds
	setupRepeats      = 9   // child launches per run whose setup times are medianed
	freshnessBlock    = 64  // images per freshness block (the continual trainer's K)
)

// recordedDigests pins the trained weight+theta digest of the default seed
// at the default size; a run of that seed and size must reproduce it.
var recordedDigests = map[[2]uint64]string{
	{DefaultSeed, 25 * trainImagesPerSec}: "b73915685477ea929abc904b9ff1fcdf",
}

// trainReport is what the train-fast child prints as its last line.
type trainReport struct {
	Workers int        `json:"workers"`
	WallNs  int64      `json:"wall_ns"`  // the timed TrainImage loop
	CPUNs   int64      `json:"cpu_ns"`   // user+sys CPU across the timed loop
	LatNs   []int64    `json:"lat_ns"`   // one TrainImage call each
	StartNs []int64    `json:"start_ns"` // each call's start, from the loop's start
	Windows []window   `json:"windows"`  // host steal while the loop ran
	SynthNs int64      `json:"synth_ns"`
	NewNs   int64      `json:"new_ns"`
	Digest  string     `json:"digest"`
	Before  promSample `json:"before,omitempty"` // obs registry, traced only
	After   promSample `json:"after,omitempty"`
}

// trainChild is the program under test for train-fast: pssim's training
// path with pssim's defaults (stochastic rule, dense plasticity, workers =
// GOMAXPROCS, no observer unless traced), timing each TrainImage call.
func trainChild(seed uint64, images int, traced, setupOnly bool, traceOut string) error {
	if images < freshnessBlock {
		return fmt.Errorf("-images %d: need at least %d", images, freshnessBlock)
	}
	var tr *tracer
	var reg *obs.Registry
	if traced {
		tr, reg = newTracer(), obs.NewRegistry()
	}
	var rep trainReport

	t0 := time.Now()
	ds := dataset.SynthDigits(images, seed)
	t1 := time.Now()
	tr.add("dataset.synth", 0, 0, t0, t1)
	rep.SynthNs = t1.Sub(t0).Nanoseconds()

	kind, err := synapse.ParseRule("stochastic")
	if err != nil {
		return err
	}
	syn, _, err := synapse.PresetConfig(synapse.PresetHighFreq, kind)
	if err != nil {
		return err
	}
	if syn.Format, err = fixed.ParseFormat("q1.7"); err != nil {
		return err
	}
	syn.Seed = seed
	cfg := network.DefaultConfig(ds.Pixels(), trainNeurons, syn)
	ex := engine.New(engine.Auto)
	defer ex.Close()
	engine.Instrument(ex, reg)
	rep.Workers = ex.Workers()

	t0 = time.Now()
	net, err := network.New(cfg, network.WithExecutor(ex), network.WithObserver(reg))
	t1 = time.Now()
	if err != nil {
		return err
	}
	tr.add("network.new", 0, 0, t0, t1)
	rep.NewNs = t1.Sub(t0).Nanoseconds()

	opts := learn.DefaultOptions()
	opts.Control = encode.HighFrequencyControl()
	opts.NumClasses = ds.NumClasses
	lt, err := learn.New(net, opts)
	if err != nil {
		return err
	}
	// The parent timestamps this line: setup ends when the first timed
	// operation can be issued.
	fmt.Println("ready")
	if setupOnly {
		return nil
	}

	rep.Before = snapshotSample(reg.Snapshot())
	rep.LatNs, rep.StartNs = make([]int64, images), make([]int64, images)
	cpu0 := selfCPU()
	start := time.Now()
	steal, err := newStealSampler(start)
	if err != nil {
		return err
	}
	for i, img := range ds.Images {
		steal.poll()
		t := time.Now()
		rep.StartNs[i] = t.Sub(start).Nanoseconds()
		if _, err := lt.TrainImage(img, ds.Labels[i]); err != nil {
			return fmt.Errorf("training image %d: %w", i, err)
		}
		done := time.Now()
		rep.LatNs[i] = done.Sub(t).Nanoseconds()
		tr.add("learn.train_image", 0, i+1, t, done)
	}
	rep.WallNs = time.Since(start).Nanoseconds()
	rep.CPUNs = (selfCPU() - cpu0).Nanoseconds()
	if rep.Windows, err = steal.finish(); err != nil {
		return err
	}
	rep.After = snapshotSample(reg.Snapshot())
	rep.Digest = weightDigest(netio.Capture(net, nil))
	if traced {
		if err := tr.write(traceOut); err != nil {
			return err
		}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// snapshotSample flattens an obs snapshot into the key space /metrics
// exposes, so registry deltas use the same arithmetic as scrapes. A nil
// registry's empty snapshot yields nil.
func snapshotSample(s obs.Snapshot) promSample {
	if len(s.Counters)+len(s.Timers) == 0 {
		return nil
	}
	out := promSample{}
	for _, c := range s.Counters {
		out[c.Name] = float64(c.Value)
	}
	for _, t := range s.Timers {
		out[t.Name+"_sum"] = float64(t.SumNs)
		out[t.Name+"_count"] = float64(t.Count)
	}
	return out
}

// weightDigest hashes the trained conductances and thresholds bit for bit.
func weightDigest(s *netio.Snapshot) string {
	h := sha256.New()
	var b [8]byte
	for _, xs := range [][]float64{s.G, s.Theta} {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// trainRun is one launch of the child as the parent saw it.
type trainRun struct {
	setup  time.Duration // exec until the child reported ready
	rssMB  float64
	report trainReport
}

// spawnTrain launches the child and waits for it.
func spawnTrain(cfg runConfig, images int, traced, setupOnly bool) (trainRun, error) {
	self, err := os.Executable()
	if err != nil {
		return trainRun{}, err
	}
	args := []string{"-child", "train", "-seed", fmt.Sprint(cfg.seed), "-images", fmt.Sprint(images)}
	if traced {
		args = append(args, "-trace", "1", "-trace-out", traceFile(cfg, "child"))
	}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = dieWithParent()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return trainRun{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return trainRun{}, err
	}
	var run trainRun
	var last []byte
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if sc.Text() == "ready" && run.setup == 0 {
			run.setup = time.Since(start)
			continue
		}
		last = append(last[:0], sc.Bytes()...)
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return trainRun{}, fmt.Errorf("train child: %w", err)
	}
	if scanErr != nil {
		return trainRun{}, fmt.Errorf("reading train child: %w", scanErr)
	}
	if run.setup == 0 {
		return trainRun{}, fmt.Errorf("train child never reported ready")
	}
	run.rssMB = peakRSSMB(cmd)
	if setupOnly {
		return run, nil
	}
	if err := json.Unmarshal(last, &run.report); err != nil {
		return trainRun{}, fmt.Errorf("train child report: %w", err)
	}
	if len(run.report.LatNs) != images {
		return trainRun{}, fmt.Errorf("train child timed %d of %d images", len(run.report.LatNs), images)
	}
	return run, nil
}

func traceFile(cfg runConfig, part string) string {
	return filepath.Join(cfg.workRoot, "traces",
		fmt.Sprintf("%s-seed%d-%s.json", cfg.workload, cfg.seed, part))
}

// checkDigest enforces the train-fast determinism gate: the digest must
// match the one recorded for the default seed, and every earlier run of
// this seed and size in this checkout (the ledger under workRoot).
func checkDigest(cfg runConfig, images int, digest string, out *outcome) error {
	if want := recordedDigests[[2]uint64{cfg.seed, uint64(images)}]; want != "" && want != digest {
		out.violate("train-fast digest %s, recorded %s for seed %d", digest, want, cfg.seed)
	}
	ledger := filepath.Join(cfg.workRoot, "digests", fmt.Sprintf("train-fast-%d-%d", cfg.seed, images))
	prev, err := os.ReadFile(ledger)
	switch {
	case err == nil:
		if string(prev) != digest {
			out.violate("train-fast digest %s, an earlier run of seed %d gave %s", digest, cfg.seed, prev)
		}
		return nil
	case os.IsNotExist(err):
		if err := os.MkdirAll(filepath.Dir(ledger), 0o755); err != nil {
			return err
		}
		return os.WriteFile(ledger, []byte(digest), 0o644)
	default:
		return err
	}
}

// quietTraining is the timing of a training run over its quiet windows:
// the TrainImage latencies of images started in them, the throughput over
// those images, and the time of each freshnessBlock-image block started in
// them.
type quietTraining struct {
	lat        []float64 // ms
	throughput float64   // images/s
	blocks     []float64 // ms
}

func quietTrain(rep trainReport) quietTraining {
	q := pickQuiet(rep.Windows)
	var out quietTraining
	var keptNs int64
	for i, ns := range rep.LatNs {
		if !q.contains(time.Duration(rep.StartNs[i])) {
			continue
		}
		out.lat = append(out.lat, float64(ns)/1e6)
		keptNs += ns
		if i%freshnessBlock == 0 && i+freshnessBlock <= len(rep.LatNs) {
			var sum int64
			for _, b := range rep.LatNs[i : i+freshnessBlock] {
				sum += b
			}
			out.blocks = append(out.blocks, float64(sum)/1e6)
		}
	}
	out.throughput = float64(len(out.lat)) / (float64(keptNs) / 1e9)
	return out
}

// runTrainFast measures training throughput and per-image latency at the
// paper's operating point. Untraced: setupRepeats launches, the last of
// which trains. Traced: one untraced and one traced training launch, so
// the tracing overhead is measured, not assumed.
func runTrainFast(cfg runConfig) (*outcome, error) {
	images := trainImagesPerSec * cfg.seconds
	out := &outcome{metrics: map[string]float64{}, attempted: images}
	if cfg.traced {
		return out, traceTrainFast(cfg, images, out)
	}
	var setups []float64
	for i := 0; i < setupRepeats-1; i++ {
		r, err := spawnTrain(cfg, images, false, true)
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.setup.Seconds())
	}
	run, err := spawnTrain(cfg, images, false, false)
	if err != nil {
		return nil, err
	}
	setups = append(setups, run.setup.Seconds())
	rep := run.report
	if err := checkDigest(cfg, images, rep.Digest, out); err != nil {
		return nil, err
	}
	qt := quietTrain(rep)
	m := out.metrics
	noteSteal(m, rep.Windows, pickQuiet(rep.Windows))
	if err := setLatency(m, qt.lat); err != nil {
		return nil, err
	}
	m["setup_s"] = median(setups)
	m["throughput_per_s"] = qt.throughput
	m["cpu_ms_per_op"] = float64(rep.CPUNs) / 1e6 / float64(images)
	m["peak_rss_mb"] = run.rssMB
	m["freshness_ms"] = median(qt.blocks)
	return out, nil
}

// traceTrainFast fills the per-layer metrics from the traced child's spans
// and obs registry deltas.
func traceTrainFast(cfg runConfig, images int, out *outcome) error {
	plain, err := spawnTrain(cfg, images, false, false)
	if err != nil {
		return err
	}
	traced, err := spawnTrain(cfg, images, true, false)
	if err != nil {
		return err
	}
	rep := traced.report
	if rep.Digest != plain.report.Digest {
		out.violate("traced digest %s differs from untraced %s", rep.Digest, plain.report.Digest)
	}
	if err := checkDigest(cfg, images, rep.Digest, out); err != nil {
		return err
	}
	d := func(key string) (float64, error) { return delta(rep.Before, rep.After, key) }
	perImage := func(key string) (float64, error) {
		v, err := d(key)
		return v / float64(images), err
	}
	m := out.metrics
	m["dataset.synth_ms"] = float64(rep.SynthNs) / 1e6
	m["network.new_ms"] = float64(rep.NewNs) / 1e6
	var spanNs float64
	for _, ns := range rep.LatNs {
		spanNs += float64(ns)
	}
	m["learn.train_image_ms"] = spanNs / float64(images) / 1e6

	var phaseNs float64
	for _, p := range []struct{ metric, timer string }{
		{"network.encode_ms", "network_phase_encode_ns"},
		{"network.encode_build_ms", "network_phase_encode_build_ns"},
		{"network.integrate_ms", "network_phase_integrate_ns"},
		{"network.plasticity_ms", "network_phase_plasticity_ns"},
		{"network.inhibit_ms", "network_phase_inhibit_ns"},
	} {
		ns, err := d(p.timer + "_sum")
		if err != nil {
			return err
		}
		phaseNs += ns
		m[p.metric] = ns / float64(images) / 1e6
	}
	// The trainer's own time is the TrainImage span minus its presentation
	// (learn_present_ns, boosts included): vote, moving error, response
	// tally. What the presentation timer covers beyond the network phase
	// timers is the step loop's unaccounted remainder.
	presentNs, err := d("learn_present_ns_sum")
	if err != nil {
		return err
	}
	m["learn.self_ms"] = (spanNs - presentNs) / float64(images) / 1e6
	m["trace.unaccounted_frac"] = 1 - (phaseNs+spanNs-presentNs)/spanNs
	for metric, counter := range map[string]string{
		"network.input_spikes": "network_input_spikes_total",
		"network.exc_spikes":   "network_exc_spikes_total",
		"network.syn_updates":  "network_syn_updates_total",
		"engine.for_calls":     "engine_for_calls_total",
	} {
		if m[metric], err = perImage(counter); err != nil {
			return err
		}
	}
	chunkNs, err := d("engine_chunk_ns_sum")
	if err != nil {
		return err
	}
	m["engine.busy_frac"] = chunkNs / (float64(rep.Workers) * float64(rep.WallNs))
	noteSteal(m, rep.Windows, pickQuiet(rep.Windows))
	plainQuiet := quietTrain(plain.report)
	if err := setLatency(m, plainQuiet.lat); err != nil {
		return err
	}
	m["trace.overhead_frac"] = 1 - quietTrain(rep).throughput/plainQuiet.throughput
	if u := m["trace.unaccounted_frac"]; math.Abs(u) > unaccountedTolerance {
		out.violate("network phases + learn.self_ms leave %.1f%% of the TrainImage spans unaccounted (tolerance %.0f%%)",
			100*u, 100*unaccountedTolerance)
	}
	return nil
}

// unaccountedTolerance bounds the share of TrainImage span time that the
// network phase timers plus the trainer's self time may leave unexplained.
const unaccountedTolerance = 0.10
