// Package continual implements train-while-serve: an online trainer that
// learns from live labeled traffic beside the serving path and hot-publishes
// checkpoints the serving path can trust.
//
// One goroutine owns a private network copy (lazy plasticity by default) and
// drains a bounded ingest queue fed by POST /models/{name}/learn. Every K
// trained examples it emits a crash-safe PSS2 candidate checkpoint to an
// immutable per-candidate path, reads it back from disk (so what is judged
// is the exact bytes an operator could replay), shadow-evaluates old and
// new engines on a mirrored sample of recent traffic, and promotes through
// registry.PublishCAS — an RCU swap that drops zero requests, fenced on the
// generation the shadow eval ran against — only when the accuracy delta
// clears a configurable gate. Gated and failed candidates are deleted, so
// no path the registry could re-stage ever holds bytes the gate rejected.
// Every decision is recorded as a generation-tagged Audit.
//
// The promotion state machine per candidate:
//
//	train…train → emit → stage → shadow → gate ─┬→ promoted   (published, Gen+1)
//	                │       │        │          └→ gated      (live generation keeps serving)
//	                └───────┴────────┴──────────── rolled back (write/stage/eval failure;
//	                                                           live generation untouched)
//
// Determinism contract: the simulator's RNG is counter-based, so the base
// checkpoint (written at Start and at every rebase) plus the in-order
// example log — each example stamped with the encode band in force when it
// was trained — replays to bit-identical published weights (Replay; the
// golden-audit test pins this across dense/lazy/pooled executors).
package continual

import (
	"errors"
	"fmt"
	"sync"

	"parallelspikesim/internal/fault"
	"parallelspikesim/internal/learn"
	"parallelspikesim/internal/netio"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/obs"
	"parallelspikesim/internal/registry"
)

// ErrQueueFull is returned by Submit when the bounded ingest queue is at
// capacity; the HTTP layer maps it to 429 so callers can back off.
var ErrQueueFull = errors.New("continual: ingest queue full")

// Audit outcome states; Audit.Outcome is always one of these.
const (
	// OutcomePromoted: the candidate cleared the gate and was published.
	OutcomePromoted = "promoted"
	// OutcomeBootstrapped: no live generation existed, so the candidate was
	// published without a shadow comparison (nothing to regress against).
	OutcomeBootstrapped = "bootstrapped"
	// OutcomeGated: the candidate's shadow delta fell below the gate; it was
	// demoted and the live generation keeps serving.
	OutcomeGated = "gated"
	// OutcomeRolledBack: emit, stage or shadow eval failed (torn write,
	// corrupt bytes, build error); the live generation is untouched.
	OutcomeRolledBack = "rolled back"
)

// Audit is the generation-tagged record of one candidate decision —
// everything an operator needs to reconstruct why a model is (or is not)
// serving, and everything Replay needs to reproduce a promoted one.
type Audit struct {
	Seq      int    `json:"seq"`      // candidate number, 1-based, monotonic
	BaseSeq  int    `json:"base_seq"` // which base checkpoint the example log replays from
	Examples int    `json:"examples"` // log length at emit: replay trains log[:Examples]
	Seed     uint64 `json:"seed"`     // network master seed (the RNG is counter-based)

	Path       string `json:"path"`        // candidate snapshot file
	PayloadCRC uint32 `json:"payload_crc"` // digest of the served payload (netio.Snapshot.PayloadCRC)

	ShadowSample int     `json:"shadow_sample"`      // mirrored examples evaluated
	LiveGen      uint64  `json:"live_gen,omitempty"` // generation shadowed against
	LiveAcc      float64 `json:"live_acc"`
	CandAcc      float64 `json:"cand_acc"`
	Delta        float64 `json:"delta"`

	Outcome string `json:"outcome"`
	Err     string `json:"err,omitempty"` // failure detail for rolled-back candidates
	Gen     uint64 `json:"gen,omitempty"` // generation published (promoted/bootstrapped)
}

// Config sizes a continual trainer.
type Config struct {
	// Name is the registry model the trainer feeds.
	Name string
	// Dir is where the base and candidate checkpoints live.
	Dir string
	// QueueSize bounds the ingest queue (0 = 256).
	QueueSize int
	// MaxLog bounds the in-memory example log. When the log reaches this
	// length the trainer rebases: it writes a fresh base checkpoint and
	// truncates the log, keeping replayability with bounded memory (older
	// audits become non-replayable — Status.BaseSeq says which are live).
	// 0 = 65536; negative = unbounded.
	MaxLog int
	// Tune is the initial operating point (zero value = DefaultTune).
	Tune Tune
}

const defaultQueueSize = 256
const defaultMaxLog = 1 << 16
const maxAudits = 256 // retained audit window

func (c Config) withDefaults() Config {
	if c.QueueSize == 0 {
		c.QueueSize = defaultQueueSize
	}
	if c.MaxLog == 0 {
		c.MaxLog = defaultMaxLog
	}
	if c.Tune == (Tune{}) {
		c.Tune = DefaultTune()
	}
	return c
}

func (c Config) validate() error {
	if c.Name == "" {
		return fmt.Errorf("continual: empty model name")
	}
	if c.Dir == "" {
		return fmt.Errorf("continual: empty checkpoint dir")
	}
	if c.QueueSize < 1 || c.QueueSize > 1<<20 {
		return fmt.Errorf("continual: queue size %d out of range [1, %d]", c.QueueSize, 1<<20)
	}
	return c.Tune.Validate()
}

// Option customizes a Trainer at construction time.
type Option func(*buildOptions)

type buildOptions struct {
	fs      fault.FS
	reg     *obs.Registry
	netOpts []network.Option
}

// WithFS routes all checkpoint I/O through fsys — the seam the chaos tests
// inject faults through. Default is the real filesystem.
func WithFS(fsys fault.FS) Option {
	return func(o *buildOptions) { o.fs = fsys }
}

// WithObserver attaches the trainer's metrics to reg: ingest/drop/train
// counters, candidate/promotion/demotion/rollback totals, the shadow delta
// gauge and the shadow-eval + candidate-age histograms. A nil registry
// keeps the path metric-free.
func WithObserver(reg *obs.Registry) Option {
	return func(o *buildOptions) { o.reg = reg }
}

// WithNetworkOptions overrides the private network's build options. The
// default is lazy plasticity on the sequential executor — the cheap online
// schedule; overriding the executor or plasticity mode never changes the
// trained weights (the golden-audit test pins bit-identity across them).
func WithNetworkOptions(opts ...network.Option) Option {
	return func(o *buildOptions) { o.netOpts = opts }
}

// Trainer is the train-while-serve loop for one named model. All training
// state (network, learn.Trainer, example log) is owned by the single run
// goroutine; public methods only touch the queue and the mutex-guarded
// bookkeeping, so Submit/Status/SetTune are safe from any goroutine.
type Trainer struct {
	cfg        Config
	models     *registry.Registry
	fs         fault.FS
	numClasses int

	net *network.Network
	lt  *learn.Trainer

	queue chan Example
	stop  chan struct{}
	done  chan struct{}

	// published is the candidate file backing the generation the trainer
	// last promoted; it is deleted only after a newer candidate supersedes
	// it. Owned by the run goroutine (emit), so it needs no lock.
	published string

	mu          sync.Mutex
	started     bool
	closed      bool
	tune        Tune
	log         []Example // examples trained since the last rebase, in order
	mirror      []Example // FIFO shadow-eval sample, newest last
	audits      []Audit   // last maxAudits decisions
	seq         int       // candidates emitted (audit sequence)
	baseSeq     int       // rebase generation of the current base checkpoint
	trained     int       // examples trained since Start (survives rebase)
	promoted    int
	gated       int
	rolledBack  int
	rebases     int
	trainErrors int

	obsIngest   *obs.Counter // continual_ingest_total
	obsDropped  *obs.Counter // continual_ingest_dropped_total
	obsTrained  *obs.Counter // continual_examples_total
	obsTrainErr *obs.Counter // continual_train_errors_total
	obsCand     *obs.Counter // continual_candidates_total
	obsPromoted *obs.Counter // continual_promotions_total
	obsGated    *obs.Counter // continual_demotions_total
	obsRollback *obs.Counter // continual_rollbacks_total
	obsRebase   *obs.Counter // continual_rebases_total
	obsDelta    *obs.Gauge   // continual_shadow_delta
	obsQueue    *obs.Gauge   // continual_queue_depth
	obsShadow   *obs.Timer   // continual_shadow_ns
	obsAge      *obs.Timer   // continual_candidate_age_ns: emit→publish latency
}

// New builds a trainer for cfg.Name on a private network built from netCfg.
// base, when non-nil, seeds the weights (and, if it carries a trainer
// section, the full training progress — the crash/restart path). The
// trainer is idle until Start.
func New(cfg Config, netCfg network.Config, lopts learn.Options, base *netio.Snapshot, models *registry.Registry, opts ...Option) (*Trainer, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if models == nil {
		return nil, fmt.Errorf("continual: nil registry")
	}
	bo := buildOptions{fs: fault.OS{}}
	for _, opt := range opts {
		if opt != nil {
			opt(&bo)
		}
	}
	if bo.netOpts == nil {
		bo.netOpts = []network.Option{network.WithPlasticity(network.LazyPlasticity)}
	}
	net, err := network.New(netCfg, bo.netOpts...)
	if err != nil {
		return nil, fmt.Errorf("continual: building network: %w", err)
	}
	if base != nil {
		if err := base.Restore(net); err != nil {
			return nil, fmt.Errorf("continual: restoring base weights: %w", err)
		}
	}
	lt, err := learn.New(net, lopts)
	if err != nil {
		return nil, fmt.Errorf("continual: building trainer: %w", err)
	}
	if base != nil && base.Trainer != nil {
		if err := lt.RestoreState(base.Trainer); err != nil {
			return nil, fmt.Errorf("continual: restoring trainer progress: %w", err)
		}
	}
	classes := lopts.NumClasses
	if classes == 0 {
		classes = 10
	}
	reg := bo.reg
	return &Trainer{
		cfg:         cfg,
		models:      models,
		fs:          bo.fs,
		numClasses:  classes,
		net:         net,
		lt:          lt,
		queue:       make(chan Example, cfg.QueueSize),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		tune:        cfg.Tune,
		obsIngest:   reg.Counter("continual_ingest_total"),
		obsDropped:  reg.Counter("continual_ingest_dropped_total"),
		obsTrained:  reg.Counter("continual_examples_total"),
		obsTrainErr: reg.Counter("continual_train_errors_total"),
		obsCand:     reg.Counter("continual_candidates_total"),
		obsPromoted: reg.Counter("continual_promotions_total"),
		obsGated:    reg.Counter("continual_demotions_total"),
		obsRollback: reg.Counter("continual_rollbacks_total"),
		obsRebase:   reg.Counter("continual_rebases_total"),
		obsDelta:    reg.Gauge("continual_shadow_delta"),
		obsQueue:    reg.Gauge("continual_queue_depth"),
		obsShadow:   reg.Timer("continual_shadow_ns"),
		obsAge:      reg.Timer("continual_candidate_age_ns"),
	}, nil
}

// ckptExt is the extension of the trainer's own checkpoint files. It is
// deliberately not registry.ModelExt: a directory Rescan only adopts *.pss
// files, so base and candidate checkpoints can live next to served models
// without ever being scanned into service behind the promotion gate.
const ckptExt = ".ckpt"

// BasePath is the replay anchor: the checkpoint Start (and every rebase)
// writes, carrying weights plus full trainer progress.
func (t *Trainer) BasePath() string { return t.cfg.Dir + "/" + t.cfg.Name + ".base" + ckptExt }

// CandidatePath is where candidate seq is emitted. Each candidate gets its
// own path and the file is never rewritten once judged: promotion publishes
// it (so Reload re-stages exactly the gate-approved bytes), while gated and
// rolled-back candidates are deleted — a later Reload can never resurrect
// bytes the gate rejected. Rescan skips these files regardless (they are
// not *.pss), which keeps an unpromoted or stale candidate from ever
// entering the registry without passing the gate.
func (t *Trainer) CandidatePath(seq int) string {
	return fmt.Sprintf("%s/%s.cand-%d%s", t.cfg.Dir, t.cfg.Name, seq, ckptExt)
}

// Name returns the registry model the trainer feeds.
func (t *Trainer) Name() string { return t.cfg.Name }

// NumInputs returns the pixel count one example must have.
func (t *Trainer) NumInputs() int { return t.net.Cfg.NumInputs }

// NumClasses returns the label arity.
func (t *Trainer) NumClasses() int { return t.numClasses }

// Start writes the base checkpoint — the offline-replay anchor — and starts
// the training goroutine. It can be called once; a failed base write leaves
// the trainer startable again.
func (t *Trainer) Start() error {
	t.mu.Lock()
	if t.closed || t.started {
		t.mu.Unlock()
		return fmt.Errorf("continual: trainer already started or closed")
	}
	t.mu.Unlock()
	if err := t.writeBase(); err != nil {
		return fmt.Errorf("continual: writing base checkpoint: %w", err)
	}
	// Re-check under the lock and spawn inside it, so Close can never
	// observe started=true without a run goroutine that will close done.
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.started {
		return fmt.Errorf("continual: trainer already started or closed")
	}
	t.started = true
	//psslint:detached joined out of the analyzer's sight: run closes t.done, which Close drains
	go t.run()
	return nil
}

// writeBase checkpoints the full training state (weights + progress) to
// BasePath. Called from Start and, afterwards, only from the run goroutine
// (rebase), so the network is never captured mid-presentation.
func (t *Trainer) writeBase() error {
	return netio.SaveFileFS(t.fs, t.BasePath(), netio.CaptureCheckpoint(t.net, t.lt))
}

// Close stops the training goroutine and waits for it to drain the example
// in flight. Idempotent and safe to call on a never-started trainer.
// Examples still queued are dropped — they were accepted at-most-once, and
// the audit trail only ever describes examples actually trained.
func (t *Trainer) Close() {
	t.mu.Lock()
	first := !t.closed
	t.closed = true
	started := t.started
	t.mu.Unlock()
	if first {
		close(t.stop)
	}
	if started {
		<-t.done
	}
}

// Submit offers one labeled example to the ingest queue without blocking:
// serving latency must never wait on the trainer. The image is copied, so
// the caller may reuse its buffer. Returns ErrQueueFull when the trainer is
// falling behind (HTTP maps it to 429).
func (t *Trainer) Submit(img []uint8, label uint8) error {
	if len(img) != t.net.Cfg.NumInputs {
		return fmt.Errorf("continual: example has %d pixels, model takes %d", len(img), t.net.Cfg.NumInputs)
	}
	if int(label) >= t.numClasses {
		return fmt.Errorf("continual: label %d out of range [0, %d)", label, t.numClasses)
	}
	t.obsIngest.Inc()
	ex := Example{Image: append([]uint8(nil), img...), Label: label}
	select {
	case t.queue <- ex:
		t.obsQueue.Set(float64(len(t.queue)))
		return nil
	default:
		t.obsDropped.Inc()
		return ErrQueueFull
	}
}

// run is the trainer goroutine: drain the queue, train, emit candidates.
// It exits when Close fires the stop channel.
func (t *Trainer) run() {
	defer close(t.done)
	for {
		select {
		case <-t.stop:
			return
		case ex := <-t.queue:
			t.obsQueue.Set(float64(len(t.queue)))
			t.handle(ex)
		}
	}
}

// handle trains one example under the tune in force, logs it for replay,
// mirrors it for shadow eval, and emits a candidate at the K boundary.
func (t *Trainer) handle(ex Example) {
	t.mu.Lock()
	tune := t.tune
	t.mu.Unlock()
	ex.Band = tune.Band()
	if err := trainOne(t.lt, ex); err != nil {
		t.obsTrainErr.Inc()
		t.mu.Lock()
		t.trainErrors++
		t.mu.Unlock()
		return
	}
	t.obsTrained.Inc()
	t.mu.Lock()
	t.log = append(t.log, ex)
	t.trained++
	t.mirror = append(t.mirror, ex)
	if over := len(t.mirror) - tune.ShadowSample; over > 0 {
		t.mirror = append(t.mirror[:0], t.mirror[over:]...)
	}
	due := len(t.log)%tune.EmitEvery == 0
	t.mu.Unlock()
	if due {
		t.emit(tune)
		t.maybeRebase()
	}
}

// emit runs the candidate state machine: checkpoint → read back → stage →
// shadow → gate → publish. Any failure before publish is a rollback: the
// live generation is untouched and the next K examples get a fresh try.
func (t *Trainer) emit(tune Tune) {
	t.obsCand.Inc()
	age := t.obsAge.Start()
	snap := candidateSnapshot(t.net, t.lt)
	crc := snap.PayloadCRC()

	t.mu.Lock()
	t.seq++
	path := t.CandidatePath(t.seq)
	aud := Audit{
		Seq:          t.seq,
		BaseSeq:      t.baseSeq,
		Examples:     len(t.log),
		Seed:         t.net.Cfg.Seed,
		Path:         path,
		PayloadCRC:   crc,
		ShadowSample: len(t.mirror),
	}
	mirror := append([]Example(nil), t.mirror...)
	t.mu.Unlock()

	if err := netio.SaveFileFS(t.fs, path, snap); err != nil {
		t.rollback(aud, fmt.Errorf("writing candidate: %w", err))
		return
	}
	// Stage from the exact bytes on disk, not the in-memory snapshot: what
	// gets judged (and published) is what an operator could replay, and a
	// torn or corrupted write dies here with the live generation untouched.
	loaded, err := netio.LoadFileFS(t.fs, path)
	if err != nil {
		t.rollback(aud, fmt.Errorf("reading candidate back: %w", err))
		return
	}
	if got := loaded.PayloadCRC(); got != crc {
		t.rollback(aud, fmt.Errorf("candidate payload CRC %#x, trained state %#x", got, crc))
		return
	}
	eng, err := t.models.Stage(loaded)
	if err != nil {
		t.rollback(aud, fmt.Errorf("staging candidate: %w", err))
		return
	}

	live, ok := t.models.Get(t.cfg.Name)
	if !ok {
		// Nothing is serving yet: publish without a shadow comparison. The
		// CAS fence (expect generation 0) means a generation published
		// concurrently by an operator is never clobbered by an unshadowed
		// bootstrap — the mismatch rolls back and the next boundary
		// shadow-evaluates against it.
		m, err := t.models.PublishCAS(t.cfg.Name, path, eng, 0)
		if err != nil {
			t.rollback(aud, fmt.Errorf("publishing bootstrap candidate: %w", err))
			return
		}
		t.promote(path)
		t.obsAge.Stop(age)
		t.obsPromoted.Inc()
		aud.Outcome, aud.Gen = OutcomeBootstrapped, m.Gen
		t.record(aud, &t.promoted)
		return
	}
	aud.LiveGen = live.Gen

	sh := t.obsShadow.Start()
	liveCorrect, liveErr := ShadowEval(live.Engine, mirror)
	candCorrect, candErr := ShadowEval(eng, mirror)
	t.obsShadow.Stop(sh)
	if liveErr != nil || candErr != nil {
		t.rollback(aud, fmt.Errorf("shadow eval: %w", errors.Join(liveErr, candErr)))
		return
	}
	aud.LiveAcc = accuracy(liveCorrect, len(mirror))
	aud.CandAcc = accuracy(candCorrect, len(mirror))
	aud.Delta = aud.CandAcc - aud.LiveAcc
	t.obsDelta.Set(aud.Delta)

	if !tune.Admits(aud.LiveAcc, aud.CandAcc) {
		t.obsGated.Inc()
		t.discard(path)
		aud.Outcome = OutcomeGated
		t.record(aud, &t.gated)
		return
	}
	// The CAS fence pins the swap to the generation the shadow eval ran
	// against: if an operator reload published a new generation mid-eval,
	// this candidate's verdict no longer describes what is live, so it
	// rolls back and the next boundary re-evaluates against the newcomer.
	m, err := t.models.PublishCAS(t.cfg.Name, path, eng, live.Gen)
	if err != nil {
		t.rollback(aud, fmt.Errorf("publishing candidate: %w", err))
		return
	}
	t.promote(path)
	t.obsAge.Stop(age)
	t.obsPromoted.Inc()
	aud.Outcome, aud.Gen = OutcomePromoted, m.Gen
	t.record(aud, &t.promoted)
}

// promote retires the previously promoted candidate file now that path has
// superseded it as the registry's backing Path. Deletion is best-effort:
// a leftover file is only wasted disk, never servable without the gate.
func (t *Trainer) promote(path string) {
	if t.published != "" && t.published != path {
		_ = t.fs.Remove(t.published)
	}
	t.published = path
}

// discard deletes a candidate file the gate or a failure rejected, so no
// on-disk path ever holds bytes a Reload could re-stage behind the gate.
// Best-effort: after a simulated crash (or a dead device) the file stays,
// but it is unreachable from the registry — promotion never published it
// and Rescan does not adopt *.ckpt files.
func (t *Trainer) discard(path string) {
	_ = t.fs.Remove(path)
}

// rollback records a failed candidate and discards whatever the emit left
// on disk. The registry was never touched, so "rolling back" is purely an
// audit-trail + cleanup event: the previous generation keeps serving and
// the trainer keeps training.
func (t *Trainer) rollback(aud Audit, err error) {
	t.obsRollback.Inc()
	t.discard(aud.Path)
	aud.Outcome, aud.Err = OutcomeRolledBack, err.Error()
	t.record(aud, &t.rolledBack)
}

// record appends the audit (bounded window) and bumps the outcome tally the
// caller points at. Callers must not hold t.mu.
func (t *Trainer) record(aud Audit, tally *int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	*tally++
	t.audits = append(t.audits, aud)
	if over := len(t.audits) - maxAudits; over > 0 {
		t.audits = append(t.audits[:0], t.audits[over:]...)
	}
}

// maybeRebase re-anchors replay when the example log hits MaxLog: a fresh
// base checkpoint (weights + trainer progress) replaces the old one and the
// log restarts empty. Promoted candidates emitted after this replay from
// the new base; older audits lose offline replayability (their BaseSeq no
// longer matches), which is the price of bounded memory.
func (t *Trainer) maybeRebase() {
	t.mu.Lock()
	need := t.cfg.MaxLog > 0 && len(t.log) >= t.cfg.MaxLog
	t.mu.Unlock()
	if !need {
		return
	}
	if err := t.writeBase(); err != nil {
		// Keep the log: replay from the old base still works, and the next
		// boundary retries the rebase. Counted as a train error in both the
		// Prometheus counter and Status so the two can never drift apart.
		t.obsTrainErr.Inc()
		t.mu.Lock()
		t.trainErrors++
		t.mu.Unlock()
		return
	}
	t.obsRebase.Inc()
	t.mu.Lock()
	t.log = nil
	t.baseSeq++
	t.rebases++
	t.mu.Unlock()
}

// SetTune atomically swaps the runtime operating point after validating it.
// The new band applies from the next trained example (and is stamped into
// each example's replay record); K and the gate apply from the next
// boundary check.
func (t *Trainer) SetTune(next Tune) error {
	if err := next.Validate(); err != nil {
		return err
	}
	t.mu.Lock()
	t.tune = next
	if over := len(t.mirror) - next.ShadowSample; over > 0 {
		t.mirror = append(t.mirror[:0], t.mirror[over:]...)
	}
	t.mu.Unlock()
	return nil
}

// Tune returns the current operating point.
func (t *Trainer) Tune() Tune {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tune
}

// Audits returns a copy of the retained audit window, oldest first.
func (t *Trainer) Audits() []Audit {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Audit(nil), t.audits...)
}

// ExampleLog returns a copy of the example log since the last rebase — the
// replay input for audits whose BaseSeq matches Status().BaseSeq.
func (t *Trainer) ExampleLog() []Example {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Example, len(t.log))
	for i, ex := range t.log {
		out[i] = Example{Image: append([]uint8(nil), ex.Image...), Label: ex.Label, Band: ex.Band}
	}
	return out
}

// Status is the trainer's public state for the GET learn endpoint.
type Status struct {
	Name        string `json:"name"`
	Running     bool   `json:"running"`
	QueueDepth  int    `json:"queue_depth"`
	QueueCap    int    `json:"queue_cap"`
	Trained     int    `json:"trained"`
	LogLen      int    `json:"log_len"`
	BaseSeq     int    `json:"base_seq"`
	Candidates  int    `json:"candidates"`
	Promotions  int    `json:"promotions"`
	Gated       int    `json:"gated"`
	Rollbacks   int    `json:"rollbacks"`
	Rebases     int    `json:"rebases"`
	TrainErrors int    `json:"train_errors"`
	Tune        Tune   `json:"tune"`
	BasePath    string `json:"base_path"`
	LastAudit   *Audit `json:"last_audit,omitempty"`
}

// Status snapshots the trainer's bookkeeping.
func (t *Trainer) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Status{
		Name:        t.cfg.Name,
		Running:     t.started && !t.closed,
		QueueDepth:  len(t.queue),
		QueueCap:    cap(t.queue),
		Trained:     t.trained,
		LogLen:      len(t.log),
		BaseSeq:     t.baseSeq,
		Candidates:  t.seq,
		Promotions:  t.promoted,
		Gated:       t.gated,
		Rollbacks:   t.rolledBack,
		Rebases:     t.rebases,
		TrainErrors: t.trainErrors,
		Tune:        t.tune,
		BasePath:    t.BasePath(),
	}
	if n := len(t.audits); n > 0 {
		last := t.audits[n-1]
		s.LastAudit = &last
	}
	return s
}

// trainOne presents one logged example exactly as it was (or will be)
// recorded: the stamped band replaces the trainer's, then one TrainImage.
// The live loop and Replay share this, so they cannot drift apart.
func trainOne(lt *learn.Trainer, ex Example) error {
	lt.Opts.Control.Band = ex.Band
	_, err := lt.TrainImage(ex.Image, ex.Label)
	return err
}

// candidateSnapshot freezes the trainer's current state into a servable
// snapshot: conductances as trained, homeostatic thresholds zeroed (the
// serving convention — evaluation mode ranks neurons purely by learned
// receptive-field match) and the label table voted from the training-time
// response counts. The trainer itself keeps its live thetas and continues
// learning; only the emitted copy is frozen.
func candidateSnapshot(net *network.Network, lt *learn.Trainer) *netio.Snapshot {
	s := netio.Capture(net, nil)
	for i := range s.Theta {
		s.Theta[i] = 0
	}
	s.Assignments = lt.Assignments()
	return s
}
