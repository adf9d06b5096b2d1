package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"parallelspikesim/internal/continual"
	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/infer"
	"parallelspikesim/internal/learn"
	"parallelspikesim/internal/netio"
	"parallelspikesim/internal/network"
)

// serve-learn: psserve -learn with its defaults (K=64, shadow 64, gate 0)
// takes labeled examples in order on one connection at learnRate while
// classify traffic runs at classifyRate.
const (
	learnEvery     = 64   // psserve's -learn-every default
	learnRate      = 40.0 // examples/s, well below the trainer's capacity
	candidatesPer  = 2    // nominal seconds of -seconds per candidate
	learnTail      = 5 * time.Second
	statusEvery    = 8 // traced runs poll the trainer's queue depth every statusEvery examples
	settleDeadline = 60 * time.Second
)

const learnPath = "/models/default/learn"

// learnStatus is psserve's GET /models/{name}/learn answer.
type learnStatus struct {
	Status continual.Status  `json:"status"`
	Audits []continual.Audit `json:"audits"`
}

// learnStream pre-encodes the learn traffic: one example per POST, in
// order, at learnRate. Traced runs interleave a status GET every
// statusEvery examples (queue-depth samples). exampleShot[i] is the index
// of example i's request in the stream.
func learnStream(ds *dataset.Dataset, traced bool) (reqs [][]byte, due []time.Duration, exampleShot []int) {
	status := encodeRequest("GET", learnPath, nil)
	for i, img := range ds.Images {
		at := time.Duration(float64(i) * float64(time.Second) / learnRate)
		js := append(append([]byte(`{"image":`), pixelsJSON(img)...), []byte(`,"label":`+strconv.Itoa(int(ds.Labels[i]))+`}`)...)
		exampleShot = append(exampleShot, len(reqs))
		reqs = append(reqs, encodeRequest("POST", learnPath, js))
		due = append(due, at)
		if traced && (i+1)%statusEvery == 0 {
			reqs = append(reqs, status)
			due = append(due, at)
		}
	}
	return reqs, due, exampleShot
}

func fetchStatus(c *client) (learnStatus, error) {
	var st learnStatus
	status, b, err := c.do(encodeRequest("GET", learnPath, nil), reqTimeout)
	if err != nil {
		return st, err
	}
	if status != 200 {
		return st, fmt.Errorf("GET %s: status %d", learnPath, status)
	}
	return st, json.Unmarshal(b, &st)
}

// candidateReplay reproduces the continual trainer offline: the base
// checkpoint psserve wrote at start plus the examples in the order sent,
// trained exactly as the trainer trains them (lazy plasticity, sequential),
// captured as a candidate snapshot at every emit boundary.
type candidateReplay struct {
	snaps   map[int]*netio.Snapshot // by example count
	trainMs []float64               // one TrainImage span per example
}

func replayCandidates(base *netio.Snapshot, examples []continual.Example, bounds []int) (*candidateReplay, error) {
	netCfg, lopts, err := continualConfig()
	if err != nil {
		return nil, err
	}
	net, err := network.New(netCfg, network.WithPlasticity(network.LazyPlasticity))
	if err != nil {
		return nil, err
	}
	if err := base.Restore(net); err != nil {
		return nil, err
	}
	lt, err := learn.New(net, lopts)
	if err != nil {
		return nil, err
	}
	if err := lt.RestoreState(base.Trainer); err != nil {
		return nil, err
	}
	out := &candidateReplay{snaps: map[int]*netio.Snapshot{}}
	want := map[int]bool{}
	for _, b := range bounds {
		want[b] = true
	}
	for i, ex := range examples {
		lt.Opts.Control.Band = ex.Band
		t := time.Now()
		if _, err := lt.TrainImage(ex.Image, ex.Label); err != nil {
			return nil, fmt.Errorf("replaying example %d: %w", i, err)
		}
		out.trainMs = append(out.trainMs, ms(time.Since(t)))
		if want[i+1] {
			// The continual trainer's candidate form: thresholds zeroed for
			// serving, labels voted from the training-time responses.
			s := netio.Capture(net, nil)
			for j := range s.Theta {
				s.Theta[j] = 0
			}
			s.Assignments = lt.Assignments()
			out.snaps[i+1] = s
		}
	}
	return out, nil
}

// continualConfig is the network and learn configuration psserve -learn
// gives its continual trainer.
func continualConfig() (network.Config, learn.Options, error) {
	netCfg, ctl, err := serveNetConfig()
	if err != nil {
		return netCfg, learn.Options{}, err
	}
	lopts := learn.DefaultOptions()
	lopts.Control = ctl
	lopts.NumClasses = serveClasses
	return netCfg, lopts, nil
}

// runServeLearn: classify traffic at classifyRate beside an in-order learn
// stream of candidates×learnEvery examples; freshness is the time from the
// K-th example of a batch to the first classify answered by the generation
// it produced.
func runServeLearn(cfg runConfig) (*outcome, error) {
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
	fixtureEng, err := newEngine(snap)
	if err != nil {
		return nil, err
	}
	bodies := classifyBodies(cfg.seed)
	reqs := make([][]byte, len(bodies))
	for i, b := range bodies {
		reqs[i] = b.req
	}
	candidates := max(1, cfg.seconds/candidatesPer)
	examples := dataset.SynthDigits(candidates*learnEvery, derive(cfg.seed, 6))
	lreqs, ldue, exampleShot := learnStream(examples, cfg.traced)
	learnDur := time.Duration(float64(examples.Len()) * float64(time.Second) / learnRate)
	nOpen := int(classifyRate * (learnDur + learnTail).Seconds())
	due, pick := classifySchedule(cfg.seed, nOpen)

	// Each launch checkpoints into its own directory; the last one serves.
	learnDir := func(i int) string { return filepath.Join(cfg.workDir, fmt.Sprintf("learn-%d", i)) }
	for i := 0; i < setupRepeats; i++ {
		if err := os.MkdirAll(learnDir(i), 0o755); err != nil {
			return nil, err
		}
	}
	srv, setup, err := launchSetups(cfg, func(i int) []string {
		return []string{"-load", model, "-preset", "highfreq", "-learn", "-learn-dir", learnDir(i)}
	})
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	m["setup_s"] = setup
	if err := warmup(srv.addr, reqs); err != nil {
		return nil, err
	}

	var tr *tracer
	var m0, m1 promSample
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
	lc, cc := newClient(srv.addr), newClient(srv.addr)
	defer lc.close()
	defer cc.close()
	start := time.Now()
	steal, err := newStealSampler(start)
	if err != nil {
		return nil, err
	}
	learnDone := make(chan []shot, 1)
	go func() { learnDone <- openLoop(lc, start, ldue, seq(len(lreqs)), lreqs, reqTimeout, nil) }()
	open := openLoop(cc, start, due, pick, reqs, reqTimeout, steal.poll)
	lshots := <-learnDone
	end := time.Now()
	wins, err := steal.finish()
	if err != nil {
		return nil, err
	}
	cpu1, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	genCPU := selfCPU() - gen0
	if cfg.traced {
		if m1, err = srv.scrape(); err != nil {
			return nil, err
		}
	}
	st, err := settle(lc, examples.Len(), candidates)
	if err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("psserve: %w", err)
	}

	// Learn gates: every example accepted and trained, nothing shed,
	// rolled back or failed.
	for i, k := range exampleShot {
		s := lshots[k]
		out.attempted++
		var lr struct{ Accepted, Dropped int }
		if !s.ok() || json.Unmarshal(s.Body, &lr) != nil || lr.Accepted != 1 || lr.Dropped != 0 {
			out.failed++
			out.violate("learn example %d: status %d %v %s", i, s.Status, s.Err, s.Body)
		}
	}
	depthMax := 0.0
	for k, s := range lshots {
		var ls learnStatus
		if !isExample(exampleShot, k) && s.ok() && json.Unmarshal(s.Body, &ls) == nil {
			depthMax = math.Max(depthMax, float64(ls.Status.QueueDepth))
		}
	}
	if st.Status.Trained != examples.Len() || st.Status.Rollbacks != 0 || st.Status.TrainErrors != 0 {
		out.violate("trainer trained %d of %d sent, %d rollbacks, %d train errors",
			st.Status.Trained, examples.Len(), st.Status.Rollbacks, st.Status.TrainErrors)
	}

	// Replay gate: every promoted candidate's payload CRC must be
	// reproduced offline from the base checkpoint and the examples sent.
	base, err := netio.LoadFile(filepath.Join(learnDir(setupRepeats-1), "default.base.ckpt"))
	if err != nil {
		return nil, err
	}
	// No tune request is sent, so every example trained under the band
	// the trainer reports.
	sent := make([]continual.Example, examples.Len())
	for i := range sent {
		sent[i] = continual.Example{Image: examples.Images[i], Label: examples.Labels[i], Band: st.Status.Tune.Band()}
	}
	var bounds []int
	byGen := map[uint64]int{} // promoted generation -> example count
	var promoted []continual.Audit
	for _, a := range st.Audits {
		bounds = append(bounds, a.Examples)
		if a.Outcome == continual.OutcomePromoted {
			promoted = append(promoted, a)
			byGen[a.Gen] = a.Examples
		}
	}
	rp, err := replayCandidates(base, sent, bounds)
	if err != nil {
		return nil, err
	}
	for _, a := range st.Audits {
		if got := rp.snaps[a.Examples].PayloadCRC(); a.BaseSeq != 0 || got != a.PayloadCRC {
			out.violate("candidate %d (%s): replay CRC %#x, audit %#x (base %d)", a.Seq, a.Outcome, got, a.PayloadCRC, a.BaseSeq)
		}
	}
	if len(promoted) == 0 {
		out.violate("no candidate was promoted; freshness is undefined")
		return out, nil
	}
	last := promoted[len(promoted)-1]
	netCfg, lopts, err := continualConfig()
	if err != nil {
		return nil, err
	}
	full, err := continual.Replay(base, netCfg, lopts, sent[:last.Examples])
	if err != nil {
		return nil, err
	}
	if full.PayloadCRC() != last.PayloadCRC {
		out.violate("continual.Replay CRC %#x, promoted candidate %d audit %#x", full.PayloadCRC(), last.Seq, last.PayloadCRC)
	}

	engines := map[uint64]*infer.Engine{1: fixtureEng}
	refs := &references{bodies: bodies, cache: map[[2]uint64][]infer.Prediction{},
		engines: func(gen uint64) (*infer.Engine, error) {
			if e, ok := engines[gen]; ok {
				return e, nil
			}
			n, ok := byGen[gen]
			if !ok {
				return nil, fmt.Errorf("generation %d was never promoted", gen)
			}
			e, err := newEngine(rp.snaps[n])
			engines[gen] = e
			return e, err
		}}
	lat, gens, err := checkClassify(open, refs, out)
	if err != nil {
		return nil, err
	}
	q := pickQuiet(wins)
	noteSteal(m, wins, q)
	if err := setLatency(m, quietLatencies(open, lat, q)); err != nil {
		return nil, err
	}
	// Freshness per promoted candidate. A promotion spans training, the
	// checkpoint round trip and the shadow eval, longer than one window, so
	// every promoted candidate counts.
	var fresh []float64
	for _, a := range promoted {
		sentAt := lshots[exampleShot[a.Examples-1]].Sent
		for i, g := range gens {
			if g >= a.Gen {
				fresh = append(fresh, ms(open[i].Done-sentAt))
				break
			}
		}
	}
	if len(fresh) == 0 {
		return nil, fmt.Errorf("no classify response observed a promoted generation")
	}
	ops := float64(len(open) + examples.Len())
	m["throughput_per_s"] = quietGoodput(open, lat, q)
	m["cpu_ms_per_op"] = ms(cpu1-cpu0) / ops
	m["peak_rss_mb"] = peakRSSMB(srv.cmd)
	m["freshness_ms"] = median(fresh)
	if err := checkLag(m, open, lshots); err != nil {
		return nil, err
	}
	if !cfg.traced {
		return out, nil
	}

	m["client.cpu_ms_per_op"] = ms(genCPU) / ops
	if err := servingLayers(m, m0, m1, open, int(ops)); err != nil {
		return nil, err
	}
	if err := layerSpans(model, m); err != nil {
		return nil, err
	}
	m["continual.train_ms"] = mean(rp.trainMs)
	if m["continual.shadow_ms"], err = timerMeanMs(m0, m1, "continual_shadow_ns"); err != nil {
		return nil, err
	}
	if m["continual.emit_ms"], err = timerMeanMs(m0, m1, "continual_candidate_age_ns"); err != nil {
		return nil, err
	}
	m["continual.emit_io_ms"] = m["continual.emit_ms"] - m["continual.shadow_ms"]
	m["continual.queue_depth_max"] = depthMax
	m["continual.promote_ratio"] = float64(len(promoted)) / float64(len(st.Audits))
	if m["continual.dropped"], err = delta(m0, m1, "continual_ingest_dropped_total"); err != nil {
		return nil, err
	}
	if m["continual.rollbacks"], err = delta(m0, m1, "continual_rollbacks_total"); err != nil {
		return nil, err
	}
	if err := saveSpan(filepath.Join(cfg.workDir, "candidate.ckpt"), full, m); err != nil {
		return nil, err
	}
	ph := tr.add("phase.learn", 0, 0, start, end)
	tr.addShots("client.classify", ph, 1, start, open)
	tr.addShots("client.learn", ph, len(open)+1, start, lshots)
	return out, tr.write(traceFile(cfg, "client"))
}

// settle waits until the trainer has trained every example sent and
// judged every candidate, then returns its final status and audits.
func settle(c *client, sent, candidates int) (learnStatus, error) {
	deadline := time.Now().Add(settleDeadline)
	for {
		st, err := fetchStatus(c)
		if err != nil {
			return st, err
		}
		if st.Status.Trained+st.Status.TrainErrors >= sent && len(st.Audits) >= candidates {
			sort.Slice(st.Audits, func(i, j int) bool { return st.Audits[i].Seq < st.Audits[j].Seq })
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("trainer settled %d/%d examples and %d/%d candidates within %v",
				st.Status.Trained, sent, len(st.Audits), candidates, settleDeadline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// saveSpan times netio.SaveFile of a candidate-sized snapshot.
func saveSpan(path string, snap *netio.Snapshot, m map[string]float64) error {
	var save []float64
	for i := 0; i < spanRepeats; i++ {
		t := time.Now()
		if err := netio.SaveFile(path, snap); err != nil {
			return err
		}
		save = append(save, ms(time.Since(t)))
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	m["netio.save_ms"], m["netio.ckpt_mb"] = median(save), float64(fi.Size())/1e6
	return nil
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func isExample(exampleShot []int, k int) bool {
	i := sort.SearchInts(exampleShot, k)
	return i < len(exampleShot) && exampleShot[i] == k
}
