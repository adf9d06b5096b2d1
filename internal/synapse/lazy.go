package synapse

import (
	"fmt"
	"sync"

	"parallelspikesim/internal/check"
	"parallelspikesim/internal/fixed"
)

// PostEvent is one deferred post-spike plasticity event: neuron Post fired
// at absolute time Now (ms) on global step Step. The step keys the
// counter-based RNG draws, so replaying the event later consumes exactly
// the random rolls the dense path would have consumed at the time.
type PostEvent struct {
	Step uint64
	Now  float64
	Post int32
}

// Queue is the event-driven lazy-plasticity engine (after Bautembach et
// al., "lazy+event-driven plasticity"): instead of updating all NPre
// synapses of a post neuron's column the instant it spikes, the spike is
// recorded as a PostEvent and the updates are deferred until a synapse's
// value is actually needed — which, in this simulator, is only when its
// pre neuron spikes (the row feeds the eq. 3 current sum) or when the
// presentation ends (checkpoints, statistics and visualization read the
// matrix between images).
//
// A single shared event log serves every row; cursor[pre] counts how many
// events have already been applied to row pre. Flushing a row replays
// events[cursor[pre]:] in recording order with the row's current last-pre
// spike time — which is exactly the value every deferred event observed,
// because lastPre[pre] only changes when pre spikes, and the row is always
// flushed at that moment, before the timestamp moves. Together with the
// counter-based RNG (draws keyed by (seed, tag, step, pre, post), never by
// call order) this makes the lazy path bit-identical to the dense one: per
// synapse, the same sequence of AddSat/SubSat updates with the same inputs,
// merely executed later and row-contiguously instead of column-strided.
//
// Rows are independent, so flushes of different rows may run concurrently
// (the network partitions them over the engine); recording and flushing
// must not overlap.
type Queue struct {
	P *Plasticity

	events []PostEvent
	cursor []int // events already applied, per pre row

	// scratch pools flushScratch buffers for the batched deterministic
	// flush; pooled because flushes of different rows run concurrently.
	scratch sync.Pool
}

// flushScratch is the per-flush working set of the word-parallel
// deterministic replay: per-post update counts, the list of touched posts,
// and a lane-select mask sized to the matrix row.
type flushScratch struct {
	count   []int32
	touched []int32
	sel     []fixed.Word
}

// NewQueue binds a deferred-update queue to a plasticity pipeline for a
// matrix with nPre input rows.
func NewQueue(p *Plasticity, nPre int) (*Queue, error) {
	if p == nil {
		return nil, fmt.Errorf("synapse: lazy queue needs a plasticity pipeline")
	}
	if nPre != p.M.NPre {
		return nil, fmt.Errorf("synapse: lazy queue for %d rows, matrix has %d", nPre, p.M.NPre)
	}
	return &Queue{P: p, cursor: make([]int, nPre)}, nil
}

// Record defers the plasticity updates of a post-neuron spike. Events must
// be recorded in nondecreasing step order — the order Present emits them.
func (q *Queue) Record(post int, now float64, step uint64) {
	if check.Enabled && len(q.events) > 0 {
		check.QueueEventOrder("synapse: lazy queue record", q.events[len(q.events)-1].Step, step)
	}
	q.events = append(q.events, PostEvent{Step: step, Now: now, Post: int32(post)})
}

// Events returns the number of post-spike events recorded since the last
// Reset.
func (q *Queue) Events() int { return len(q.events) }

// Pending returns the number of events not yet applied to row pre.
func (q *Queue) Pending(pre int) int {
	if check.Enabled {
		check.QueueCursor("synapse: lazy queue cursor", q.cursor[pre], len(q.events))
	}
	return len(q.events) - q.cursor[pre]
}

// MaxPending returns the largest Pending over all rows — 0 after a full
// flush, which is the invariant the network asserts at presentation end.
func (q *Queue) MaxPending() int {
	maxP := 0
	for pre := range q.cursor {
		if p := q.Pending(pre); p > maxP {
			maxP = p
		}
	}
	return maxP
}

// FlushRow applies every pending event to row pre. lastPre is the last
// spike time of input pre (Never if it has not spiked), which every pending
// event observed — see the type comment for why that holds. The replay is
// OnPostSpikeRange restricted to one pre and iterated over events, through
// the same stochRoll decision; the step varies per event, so each event
// folds its own roll keys.
//
//psslint:noalloc
func (q *Queue) FlushRow(pre int, lastPre float64) {
	evs := q.events[q.cursor[pre]:]
	if check.Enabled {
		check.QueueCursor("synapse: lazy queue flush", q.cursor[pre], len(q.events))
	}
	if len(evs) == 0 {
		return
	}
	q.cursor[pre] = len(q.events)
	p := q.P
	w := p.Cfg.Det.WindowMS
	var pots, deps uint64
	switch p.Cfg.Kind {
	case Deterministic:
		if p.fastStep && !check.Enabled {
			var ok bool
			if pots, deps, ok = q.flushRowDetPacked(pre, lastPre, evs); ok {
				break
			}
		}
		for _, e := range evs {
			if e.Now-lastPre <= w { // lastPre == Never gives +Inf → depress
				p.applyPot(pre, int(e.Post), e.Step)
				pots++
			} else {
				p.applyDep(pre, int(e.Post), e.Step)
				deps++
			}
		}
	case Stochastic:
		for _, e := range evs {
			hPot, hDep := p.rollKeys(e.Step)
			switch p.stochRoll(e.Now-lastPre, hPot, hDep, pre, int(e.Post)) {
			case potUpdate:
				p.applyPot(pre, int(e.Post), e.Step)
				pots++
			case depUpdate:
				p.applyDep(pre, int(e.Post), e.Step)
				deps++
			}
		}
	}
	p.count(pots, deps)
}

// flushRowDetPacked is the word-parallel deterministic replay: the SWAR
// form of FlushRow's scalar event loop, valid only on the flat-step packed
// path (p.fastStep).
//
// Within one flush lastPre is fixed and event times are nondecreasing, so
// the classification age e.Now − lastPre is nondecreasing too: the events
// split into an LTP prefix (age ≤ window) and an LTD suffix. Within each
// phase every update is a saturating ±1 on lane e.Post, and saturating
// increments commute — k events on the same post land on min/max-clamped
// code ± k regardless of interleaving with other posts. The replay
// therefore reduces to per-post event counts applied as rounds of
// word-parallel AddSatMasked/SubSatMasked passes (one round per repeat
// count tier), touching 8–32 lanes per machine word instead of one synapse
// per call.
//
// Returns ok=false without touching the row if the monotone-time invariant
// does not hold (hostile or out-of-order logs); the caller then runs the
// exact scalar replay.
func (q *Queue) flushRowDetPacked(pre int, lastPre float64, evs []PostEvent) (pots, deps uint64, ok bool) {
	w := q.P.Cfg.Det.WindowMS
	split := len(evs)
	for i, e := range evs {
		if i > 0 && e.Now < evs[i-1].Now {
			return 0, 0, false
		}
		if split == len(evs) && e.Now-lastPre > w { // lastPre == Never gives +Inf → depress
			split = i
		}
	}
	// A nondecreasing age crosses the window edge at most once, so
	// evs[:split] is exactly the LTP set and evs[split:] the LTD set.
	p := q.P
	pk := p.M.packing()
	s, _ := q.scratch.Get().(*flushScratch)
	if s == nil || len(s.count) < p.M.NPost {
		s = &flushScratch{
			count: make([]int32, p.M.NPost),
			sel:   pk.NewSelect(p.M.NPost),
		}
	}
	row := p.M.rowWords(pre)
	q.applyPhaseCounts(pk, row, evs[:split], true, s)
	q.applyPhaseCounts(pk, row, evs[split:], false, s)
	q.scratch.Put(s)
	return uint64(split), uint64(len(evs) - split), true
}

// applyPhaseCounts applies one flush phase (all-LTP or all-LTD) to a packed
// row: tally events per post, then repeatedly select every post with
// remaining count and apply a word-parallel saturating ±1, until all counts
// drain. The round count is the maximum repeat count, so the common
// each-post-spiked-once flush is a single masked pass over the row.
func (q *Queue) applyPhaseCounts(pk *fixed.Packing, row []fixed.Word, evs []PostEvent, pot bool, s *flushScratch) {
	if len(evs) == 0 {
		return
	}
	for _, e := range evs {
		if s.count[e.Post] == 0 {
			s.touched = append(s.touched, e.Post)
		}
		s.count[e.Post]++
	}
	for len(s.touched) > 0 {
		pk.ClearSelect(s.sel)
		live := s.touched[:0]
		for _, post := range s.touched {
			pk.SetLane(s.sel, int(post))
			if s.count[post]--; s.count[post] > 0 {
				live = append(live, post)
			}
		}
		if pot {
			pk.AddSatMasked(row, s.sel, q.P.ceilCode)
		} else {
			pk.SubSatMasked(row, s.sel, q.P.floorCode)
		}
		s.touched = live
	}
}

// FlushRowsRange flushes every row in [lo, hi) — the unit of work for the
// engine's end-of-presentation full flush. Rows are disjoint, so concurrent
// calls with disjoint ranges never race.
//
//psslint:noalloc
func (q *Queue) FlushRowsRange(lo, hi int, lastPre []float64) {
	for pre := lo; pre < hi; pre++ {
		q.FlushRow(pre, lastPre[pre])
	}
}

// Reset clears the event log and row cursors. Every row must have been
// flushed first; resetting with pending updates would silently drop them.
func (q *Queue) Reset() {
	if check.Enabled {
		check.QueueDrained("synapse: lazy queue reset", q.MaxPending())
	}
	q.events = q.events[:0]
	for i := range q.cursor {
		q.cursor[i] = 0
	}
}
