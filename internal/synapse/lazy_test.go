package synapse

import (
	"testing"

	"parallelspikesim/internal/rng"
)

func queueFixture(t *testing.T, kind RuleKind) (*Plasticity, *Plasticity, *Queue) {
	t.Helper()
	cfg, _, err := PresetConfig(Preset8Bit, kind)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 77
	mkMat := func() (*Matrix, *Plasticity) {
		m, err := NewMatrix(6, 4, cfg.Format)
		if err != nil {
			t.Fatal(err)
		}
		m.InitUniform(rng.NewStream(1), 0.2, 0.8)
		p, err := NewPlasticity(cfg, m)
		if err != nil {
			t.Fatal(err)
		}
		return m, p
	}
	_, dense := mkMat()
	_, lazy := mkMat()
	q, err := NewQueue(lazy, 6)
	if err != nil {
		t.Fatal(err)
	}
	return dense, lazy, q
}

func assertSameMatrix(t *testing.T, dense, lazy *Plasticity) {
	t.Helper()
	dw, lw := dense.M.Weights(), lazy.M.Weights()
	for i := range dw {
		if dw[i] != lw[i] {
			t.Fatalf("synapse %d diverged: dense %v, lazy %v", i, dw[i], lw[i])
		}
	}
	dp, dd := dense.Counters()
	lp, ld := lazy.Counters()
	if dp != lp || dd != ld {
		t.Fatalf("counters diverged: pot %d/%d, dep %d/%d", dp, lp, dd, ld)
	}
}

func TestNewQueueValidation(t *testing.T) {
	cfg, _, _ := PresetConfig(Preset8Bit, Stochastic)
	m, _ := NewMatrix(6, 4, cfg.Format)
	p, err := NewPlasticity(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewQueue(nil, 6); err == nil {
		t.Fatal("nil plasticity accepted")
	}
	if _, err := NewQueue(p, 7); err == nil {
		t.Fatal("row-count mismatch accepted")
	}
	if _, err := NewQueue(p, 6); err != nil {
		t.Fatal(err)
	}
}

func TestQueueReplayMatchesDense(t *testing.T) {
	// The core unit-level identity: Record + FlushRow replays exactly what
	// OnPostSpikeRange applied eagerly, per rule, when the flush observes
	// the same lastPre snapshot the dense update saw.
	for _, kind := range []RuleKind{Deterministic, Stochastic} {
		dense, lazy, q := queueFixture(t, kind)
		lastPre := []float64{Never, 1, 3, 5, 5.5, Never}
		events := []struct {
			post int
			now  float64
			step uint64
		}{{0, 6, 6}, {2, 7, 7}, {1, 7, 7}, {3, 9, 9}}
		for _, e := range events {
			for pre := range lastPre {
				dense.OnPostSpikeRange(e.post, e.now, lastPre, e.step, pre, pre+1)
			}
			q.Record(e.post, e.now, e.step)
		}
		if q.Events() != len(events) {
			t.Fatalf("%v: queue holds %d events, want %d", kind, q.Events(), len(events))
		}
		if q.MaxPending() != len(events) {
			t.Fatalf("%v: MaxPending %d before flush", kind, q.MaxPending())
		}
		for pre := range lastPre {
			q.FlushRow(pre, lastPre[pre])
		}
		if q.MaxPending() != 0 {
			t.Fatalf("%v: %d events still pending after full flush", kind, q.MaxPending())
		}
		assertSameMatrix(t, dense, lazy)
	}
}

func TestQueueIncrementalFlush(t *testing.T) {
	// Rows may flush at different times, and a flushed row replays only the
	// events it has not seen — double-flushing must be a no-op.
	dense, lazy, q := queueFixture(t, Stochastic)
	lastPre := []float64{0, 2, 4, Never, 1, 3}

	apply := func(post int, now float64, step uint64) {
		for pre := range lastPre {
			dense.OnPostSpikeRange(post, now, lastPre, step, pre, pre+1)
		}
		q.Record(post, now, step)
	}
	apply(0, 5, 5)
	apply(1, 6, 6)
	q.FlushRow(2, lastPre[2])
	if got := q.Pending(2); got != 0 {
		t.Fatalf("row 2 pending %d after flush", got)
	}
	if got := q.Pending(0); got != 2 {
		t.Fatalf("row 0 pending %d, want 2", got)
	}
	q.FlushRow(2, lastPre[2]) // no pending events: must not re-apply
	apply(3, 8, 8)
	if got := q.Pending(2); got != 1 {
		t.Fatalf("row 2 pending %d after new event, want 1", got)
	}
	q.FlushRowsRange(0, len(lastPre), lastPre)
	if q.MaxPending() != 0 {
		t.Fatalf("pending after full flush: %d", q.MaxPending())
	}
	assertSameMatrix(t, dense, lazy)
}

func TestQueueResetClears(t *testing.T) {
	_, _, q := queueFixture(t, Deterministic)
	lastPre := make([]float64, 6)
	q.Record(1, 2, 2)
	q.Record(2, 3, 3)
	q.FlushRowsRange(0, 6, lastPre)
	q.Reset()
	if q.Events() != 0 || q.MaxPending() != 0 {
		t.Fatalf("reset left %d events, %d pending", q.Events(), q.MaxPending())
	}
	// The queue is reusable after Reset.
	q.Record(0, 4, 4)
	if q.Events() != 1 || q.Pending(0) != 1 {
		t.Fatal("queue unusable after reset")
	}
}

func TestApplyHelpersSkipCounters(t *testing.T) {
	// applyPot/applyDep are the counter-free kernels both schedules count
	// around: applied by hand they move the weights exactly as a counted
	// OnPostSpikeRange does, and leave the counters alone.
	cfg, _, _ := PresetConfig(PresetFloat, Deterministic)
	mk := func() *Plasticity {
		m, _ := NewMatrix(2, 2, cfg.Format)
		m.InitUniform(rng.NewStream(1), 0.3, 0.6)
		p, err := NewPlasticity(cfg, m)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	byHand, counted := mk(), mk()
	byHand.applyPot(0, 1, 2)
	byHand.applyDep(1, 1, 2)
	// Pre 0 fired inside the LTP window, pre 1 never: one LTP, one LTD.
	counted.OnPostSpikeRange(1, 100, []float64{99, Never}, 2, 0, 2)
	hw, cw := byHand.M.Weights(), counted.M.Weights()
	for i := range hw {
		if hw[i] != cw[i] {
			t.Fatalf("synapse %d: by hand %v, OnPostSpikeRange %v", i, hw[i], cw[i])
		}
	}
	if pot, dep := byHand.Counters(); pot != 0 || dep != 0 {
		t.Fatalf("apply helpers counted: pot %d dep %d", pot, dep)
	}
	if pot, dep := counted.Counters(); pot != 1 || dep != 1 {
		t.Fatalf("OnPostSpikeRange counted pot %d dep %d, want 1/1", pot, dep)
	}
}

func TestQueueQuantizedStaysOnGrid(t *testing.T) {
	// Deferred replay still routes every write through AddSat/SubSat: after
	// arbitrary flush interleavings the 2-bit matrix stays on its grid.
	cfg, _, _ := PresetConfig(Preset2Bit, Stochastic)
	cfg.Seed = 3
	m, _ := NewMatrix(4, 3, cfg.Format)
	m.InitUniform(rng.NewStream(2), 0.1, 0.9)
	p, err := NewPlasticity(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := NewQueue(p, 4)
	lastPre := []float64{0, 10, 20, Never}
	for step := uint64(1); step <= 30; step++ {
		q.Record(int(step)%3, float64(step), step)
		if step%5 == 0 {
			q.FlushRow(int(step)%4, lastPre[int(step)%4])
		}
	}
	q.FlushRowsRange(0, 4, lastPre)
	for i, g := range m.Weights() {
		if !cfg.Format.OnGrid(float64(g)) {
			t.Fatalf("synapse %d off the %s grid: %v", i, cfg.Format, g)
		}
	}
}

// TestQueueRepeatedPostsMatchDense drives the batched word-parallel replay
// through its multi-round path: the same posts spike several times within
// one flush (LTP) and again outside the window (LTD), with the row pinned
// against both saturation rails. The count-based replay must agree with the
// dense per-event application exactly.
func TestQueueRepeatedPostsMatchDense(t *testing.T) {
	for _, fill := range []float64{0.0, 0.5, 1.0} { // floor rail, interior, ceiling rail
		dense, lazy, q := queueFixture(t, Deterministic)
		dense.M.Fill(fill)
		lazy.M.Fill(fill)
		lastPre := []float64{0, 1, 2, Never, 4, 5}

		events := []struct {
			post int
			now  float64
			step uint64
		}{
			// LTP phase: post 1 spikes three times, post 0 once.
			{1, 10, 10}, {0, 11, 11}, {1, 12, 12}, {1, 13, 13},
			// LTD phase (ages beyond the window): post 2 twice, post 1 once.
			{2, 500, 500}, {1, 501, 501}, {2, 502, 502},
		}
		for _, e := range events {
			for pre := range lastPre {
				dense.OnPostSpikeRange(e.post, e.now, lastPre, e.step, pre, pre+1)
			}
			q.Record(e.post, e.now, e.step)
		}
		q.FlushRowsRange(0, len(lastPre), lastPre)
		assertSameMatrix(t, dense, lazy)
		q.Reset()

		// A second batch through the same queue reuses the pooled scratch;
		// stale counts or masks would corrupt this flush.
		for _, e := range events {
			e.step += 1000
			e.now += 1000
			for pre := range lastPre {
				dense.OnPostSpikeRange(e.post, e.now, lastPre, e.step, pre, pre+1)
			}
			q.Record(e.post, e.now, e.step)
		}
		q.FlushRowsRange(0, len(lastPre), lastPre)
		assertSameMatrix(t, dense, lazy)
	}
}

// TestQueueNonMonotoneEventsFallBack feeds the deterministic flush an event
// log whose timestamps go backwards. The word-parallel replay depends on
// nondecreasing times (one LTP→LTD split); it must detect the violation and
// fall back to the exact scalar replay rather than misclassify events.
func TestQueueNonMonotoneEventsFallBack(t *testing.T) {
	dense, lazy, q := queueFixture(t, Deterministic)
	lastPre := []float64{0, 1, 2, Never, 4, 5}

	// Steps are nondecreasing (the recorded invariant) but times are not:
	// an LTD-age event lands between two LTP-age ones.
	events := []struct {
		post int
		now  float64
		step uint64
	}{{0, 10, 10}, {2, 800, 10}, {1, 11, 11}}
	for _, e := range events {
		for pre := range lastPre {
			dense.OnPostSpikeRange(e.post, e.now, lastPre, e.step, pre, pre+1)
		}
		q.Record(e.post, e.now, e.step)
	}
	q.FlushRowsRange(0, len(lastPre), lastPre)
	if q.MaxPending() != 0 {
		t.Fatalf("pending after flush: %d", q.MaxPending())
	}
	assertSameMatrix(t, dense, lazy)
}
