// Lifecycle tests for the continual trainer: bootstrap, promotion,
// determinism (offline replay of the audit record reproduces the published
// bytes), queue shedding, runtime retuning and rebase. The chaos scenarios
// live in chaos_test.go, the order/gate properties in property_test.go.
package continual_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"parallelspikesim/internal/check"
	"parallelspikesim/internal/continual"
	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/engine"
	"parallelspikesim/internal/fault"
	"parallelspikesim/internal/infer"
	"parallelspikesim/internal/learn"
	"parallelspikesim/internal/netio"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/registry"
	"parallelspikesim/internal/synapse"
)

// Tiny fixture: 9 pixels × 4 neurons × 4 classes on the 8-bit stochastic
// rule, 20 ms presentations — small enough that a full train→emit→shadow→
// promote cycle runs in milliseconds, large enough that WTA, boosts and the
// stochastic rule all engage.
const (
	hInputs  = 9
	hNeurons = 4
	hClasses = 4
	hSeed    = 0x5eed
	hModel   = "digits"
	hDir     = "ckpt"
)

func testControl() encode.Control {
	return encode.Control{Band: encode.HighFrequencyBand(), TLearnMS: 20}
}

func testNetConfig(t testing.TB) network.Config {
	t.Helper()
	syn, _, err := synapse.PresetConfig(synapse.Preset8Bit, synapse.Stochastic)
	if err != nil {
		t.Fatalf("preset: %v", err)
	}
	syn.Seed = hSeed
	return network.DefaultConfig(hInputs, hNeurons, syn)
}

func testLearnOptions() learn.Options {
	lo := learn.DefaultOptions()
	lo.Control = testControl()
	lo.NumClasses = hClasses
	return lo
}

// inferBuilder is the production-shaped registry builder: staged snapshots
// become real frozen-weight inference engines.
func inferBuilder(netCfg network.Config, ctl encode.Control) registry.Builder {
	return func(s *netio.Snapshot) (registry.Engine, error) {
		return infer.FromSnapshot(s, netCfg, ctl, hClasses)
	}
}

// fastTune is DefaultTune with the cadence and gate a test wants.
func fastTune(emitEvery, shadow int, minDelta float64) continual.Tune {
	tn := continual.DefaultTune()
	tn.EmitEvery = emitEvery
	tn.ShadowSample = shadow
	tn.MinDelta = minDelta
	return tn
}

// classImage is a deterministic 9-pixel image with a bright bar unique to
// its class, so even a barely trained network separates the classes.
func classImage(label int) []uint8 {
	img := make([]uint8, hInputs)
	for i := 0; i < 3; i++ {
		img[(label*2+i)%hInputs] = 255
	}
	return img
}

type harness struct {
	t      *testing.T
	mem    *fault.MemFS
	inj    *fault.Injector
	models *registry.Registry
	netCfg network.Config
	tr     *continual.Trainer
}

// newHarness wires a trainer, an infer-backed registry and a fault-injected
// MemFS together the way psserve does, and registers leak-checked cleanup.
func newHarness(t *testing.T, tune continual.Tune, mutate ...func(*continual.Config)) *harness {
	t.Helper()
	check.NoLeaks(t)
	mem := fault.NewMemFS()
	inj := fault.NewInjector(mem)
	netCfg := testNetConfig(t)
	models, err := registry.New(inferBuilder(netCfg, testControl()), hClasses, registry.WithFS(inj))
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	cfg := continual.Config{Name: hModel, Dir: hDir, QueueSize: 64, Tune: tune}
	for _, m := range mutate {
		m(&cfg)
	}
	tr, err := continual.New(cfg, netCfg, testLearnOptions(), nil, models, continual.WithFS(inj))
	if err != nil {
		t.Fatalf("continual.New: %v", err)
	}
	t.Cleanup(tr.Close)
	return &harness{t: t, mem: mem, inj: inj, models: models, netCfg: netCfg, tr: tr}
}

func (h *harness) start() {
	h.t.Helper()
	if err := h.tr.Start(); err != nil {
		h.t.Fatalf("Start: %v", err)
	}
}

// feed submits n examples round-robin over the classes, retrying queue-full
// shed (the trainer drains concurrently).
func (h *harness) feed(n int) {
	h.t.Helper()
	for i := 0; i < n; i++ {
		label := uint8(i % hClasses)
		for {
			err := h.tr.Submit(classImage(int(label)), label)
			if err == nil {
				break
			}
			if !errors.Is(err, continual.ErrQueueFull) {
				h.t.Fatalf("Submit: %v", err)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// waitFor polls Status until cond holds or the test times out.
func (h *harness) waitFor(what string, cond func(continual.Status) bool) continual.Status {
	h.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		s := h.tr.Status()
		if cond(s) {
			return s
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("timed out waiting for %s; status %+v", what, s)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestLifecyclePromoteAndReplay(t *testing.T) {
	tune := fastTune(3, 8, -1) // every 3 examples, always admit
	h := newHarness(t, tune)
	h.start()
	h.feed(6)
	h.waitFor("two candidates promoted", func(s continual.Status) bool {
		return s.Candidates == 2 && s.Promotions == 2
	})
	h.tr.Close()

	audits := h.tr.Audits()
	if len(audits) != 2 {
		t.Fatalf("audits: got %d, want 2", len(audits))
	}
	if audits[0].Outcome != continual.OutcomeBootstrapped || audits[0].Gen != 1 {
		t.Fatalf("first audit: %+v, want bootstrapped gen 1", audits[0])
	}
	if audits[1].Outcome != continual.OutcomePromoted || audits[1].Gen != 2 {
		t.Fatalf("second audit: %+v, want promoted gen 2", audits[1])
	}
	if audits[1].Examples != 6 || audits[1].BaseSeq != 0 || audits[1].Seed != h.netCfg.Seed {
		t.Fatalf("second audit replay inputs: %+v", audits[1])
	}
	if audits[1].ShadowSample == 0 {
		t.Fatalf("promoted audit recorded no shadow sample: %+v", audits[1])
	}

	m, ok := h.models.Get(hModel)
	if !ok || m.Gen != 2 || m.Path != h.tr.CandidatePath(2) {
		t.Fatalf("published model: %+v ok=%v, want gen 2 at %s", m, ok, h.tr.CandidatePath(2))
	}
	// Candidate files are immutable per-seq; the superseded promoted file
	// is retired once a newer candidate takes over.
	if _, ok := h.mem.ReadFile(h.tr.CandidatePath(1)); ok {
		t.Fatalf("superseded candidate file still on disk")
	}

	// The published file's payload digest is the one the audit recorded.
	published, err := netio.LoadFileFS(h.inj, h.tr.CandidatePath(2))
	if err != nil {
		t.Fatalf("loading published candidate: %v", err)
	}
	if got := published.PayloadCRC(); got != audits[1].PayloadCRC {
		t.Fatalf("published payload CRC %#x, audit says %#x", got, audits[1].PayloadCRC)
	}

	// Determinism wall: replay the audit record offline — base checkpoint
	// plus in-order example log — and demand bit-identical published bytes,
	// under every execution strategy.
	base, err := netio.LoadFileFS(h.inj, h.tr.BasePath())
	if err != nil {
		t.Fatalf("loading base: %v", err)
	}
	log := h.tr.ExampleLog()
	if len(log) != audits[1].Examples {
		t.Fatalf("example log has %d entries, audit trained %d", len(log), audits[1].Examples)
	}
	for i, ex := range log {
		if ex.Band != tune.Band() {
			t.Fatalf("example %d stamped band %+v, tune band %+v", i, ex.Band, tune.Band())
		}
	}
	pool := engine.New(4)
	defer pool.Close()
	variants := []struct {
		name string
		opts []network.Option
	}{
		{"lazy-sequential", nil},
		{"dense-sequential", []network.Option{network.WithPlasticity(network.DensePlasticity)}},
		{"lazy-pooled", []network.Option{network.WithPlasticity(network.LazyPlasticity), network.WithExecutor(pool)}},
		{"dense-pooled", []network.Option{network.WithPlasticity(network.DensePlasticity), network.WithExecutor(pool)}},
	}
	for _, v := range variants {
		replayed, err := continual.Replay(base, h.netCfg, testLearnOptions(), log, v.opts...)
		if err != nil {
			t.Fatalf("%s replay: %v", v.name, err)
		}
		if got := replayed.PayloadCRC(); got != audits[1].PayloadCRC {
			t.Errorf("%s replay payload CRC %#x, published %#x", v.name, got, audits[1].PayloadCRC)
		}
		if !reflect.DeepEqual(replayed.G, published.G) {
			t.Errorf("%s replay conductances differ from published bytes", v.name)
		}
		if !reflect.DeepEqual(replayed.Assignments, published.Assignments) {
			t.Errorf("%s replay assignments differ from published bytes", v.name)
		}
	}
}

func TestSubmitValidatesAndShedsWithoutBlocking(t *testing.T) {
	// Unstarted trainer with a one-slot queue: nothing drains, so the
	// second accepted example must shed immediately rather than block.
	h := newHarness(t, continual.DefaultTune(), func(c *continual.Config) { c.QueueSize = 1 })

	if err := h.tr.Submit(make([]uint8, hInputs-1), 0); err == nil {
		t.Fatalf("short image accepted")
	}
	if err := h.tr.Submit(make([]uint8, hInputs), hClasses); err == nil {
		t.Fatalf("out-of-range label accepted")
	}
	if err := h.tr.Submit(classImage(0), 0); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- h.tr.Submit(classImage(1), 1) }()
	select {
	case err := <-done:
		if !errors.Is(err, continual.ErrQueueFull) {
			t.Fatalf("second submit: %v, want ErrQueueFull", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("Submit blocked on a full queue")
	}
	if s := h.tr.Status(); s.Running {
		t.Fatalf("unstarted trainer reports running")
	}
}

func TestSetTuneValidatesAndStampsBand(t *testing.T) {
	tune := fastTune(100, 8, -1) // never emits during this test
	h := newHarness(t, tune)
	h.start()

	bad := tune
	bad.MaxHz = -3
	if err := h.tr.SetTune(bad); err == nil {
		t.Fatalf("invalid tune accepted")
	}
	if got := h.tr.Tune(); got != tune {
		t.Fatalf("rejected tune still applied: %+v", got)
	}

	h.feed(2)
	h.waitFor("first two trained", func(s continual.Status) bool { return s.Trained == 2 })

	next := tune
	next.MinHz, next.MaxHz = 1, 22 // baseline band
	if err := h.tr.SetTune(next); err != nil {
		t.Fatalf("SetTune: %v", err)
	}
	h.feed(2)
	h.waitFor("four trained", func(s continual.Status) bool { return s.Trained == 4 })
	h.tr.Close()

	log := h.tr.ExampleLog()
	if len(log) != 4 {
		t.Fatalf("example log has %d entries, want 4", len(log))
	}
	want := []encode.Band{tune.Band(), tune.Band(), next.Band(), next.Band()}
	for i, ex := range log {
		if ex.Band != want[i] {
			t.Fatalf("example %d stamped %+v, want %+v (retune must apply from the next example)", i, ex.Band, want[i])
		}
	}
}

func TestRebaseKeepsReplayAnchored(t *testing.T) {
	tune := fastTune(2, 4, -1)
	h := newHarness(t, tune, func(c *continual.Config) { c.MaxLog = 4 })
	h.start()

	// 8 examples: emits at log 2 and 4 (rebase), then again — two rebases.
	h.feed(8)
	h.waitFor("two rebases", func(s continual.Status) bool {
		return s.Candidates == 4 && s.Rebases == 2
	})
	s := h.tr.Status()
	if s.BaseSeq != 2 || s.LogLen != 0 {
		t.Fatalf("after two rebases: %+v, want BaseSeq 2 with empty log", s)
	}

	// Two more: one candidate from the rebased anchor.
	h.feed(2)
	h.waitFor("post-rebase candidate", func(s continual.Status) bool { return s.Candidates == 5 })
	h.tr.Close()

	audits := h.tr.Audits()
	last := audits[len(audits)-1]
	if last.Outcome != continual.OutcomePromoted || last.BaseSeq != 2 || last.Examples != 2 {
		t.Fatalf("post-rebase audit: %+v, want promoted with BaseSeq 2 over 2 examples", last)
	}

	// The rebased base plus the short log replays the promoted bytes: the
	// replay anchor moved with the rebase.
	base, err := netio.LoadFileFS(h.inj, h.tr.BasePath())
	if err != nil {
		t.Fatalf("loading rebased base: %v", err)
	}
	log := h.tr.ExampleLog()
	if len(log) != 2 {
		t.Fatalf("post-rebase log has %d entries, want 2", len(log))
	}
	replayed, err := continual.Replay(base, h.netCfg, testLearnOptions(), log)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if got := replayed.PayloadCRC(); got != last.PayloadCRC {
		t.Fatalf("replay from rebased anchor: CRC %#x, audit %#x", got, last.PayloadCRC)
	}
}

func TestGateDemotesRegressingCandidate(t *testing.T) {
	// An impossible gate: no candidate can beat the live engine by more
	// than 100%, so after bootstrap every candidate must be demoted and the
	// published generation must never move.
	tune := fastTune(2, 4, 1)
	h := newHarness(t, tune)
	h.start()
	h.feed(6)
	h.waitFor("bootstrap then two demotions", func(s continual.Status) bool {
		return s.Candidates == 3 && s.Gated == 2
	})
	h.tr.Close()

	m, ok := h.models.Get(hModel)
	if !ok || m.Gen != 1 {
		t.Fatalf("published model: %+v ok=%v, want bootstrap gen 1 still serving", m, ok)
	}
	audits := h.tr.Audits()
	if audits[0].Outcome != continual.OutcomeBootstrapped {
		t.Fatalf("first audit: %+v", audits[0])
	}
	for _, aud := range audits[1:] {
		if aud.Outcome != continual.OutcomeGated {
			t.Fatalf("audit %d: %+v, want gated", aud.Seq, aud)
		}
		if aud.Delta >= tune.MinDelta {
			t.Fatalf("audit %d gated with delta %v >= gate %v", aud.Seq, aud.Delta, tune.MinDelta)
		}
		if aud.Gen != 0 {
			t.Fatalf("gated audit %d carries published generation %d", aud.Seq, aud.Gen)
		}
		// Rejected bytes must not linger at any path a Reload could
		// re-stage.
		if _, ok := h.mem.ReadFile(aud.Path); ok {
			t.Fatalf("gated candidate %d left its file on disk at %s", aud.Seq, aud.Path)
		}
	}

	// The registry's backing path holds exactly the gate-approved bytes, so
	// an operator /reload after the demotions republishes them — never a
	// rejected candidate's.
	reloaded, err := h.models.Reload(hModel)
	if err != nil {
		t.Fatalf("reload after demotions: %v", err)
	}
	if reloaded.Gen != 2 || reloaded.Path != audits[0].Path {
		t.Fatalf("reload: %+v, want gen 2 from %s", reloaded, audits[0].Path)
	}
	snap, err := netio.LoadFileFS(h.inj, reloaded.Path)
	if err != nil {
		t.Fatalf("loading reloaded path: %v", err)
	}
	if got := snap.PayloadCRC(); got != audits[0].PayloadCRC {
		t.Fatalf("reload re-staged CRC %#x, gate approved %#x", got, audits[0].PayloadCRC)
	}
}
