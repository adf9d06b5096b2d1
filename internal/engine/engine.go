// Package engine provides the execution substrate that stands in for the
// paper's CUDA GPU: a data-parallel range executor backed by a persistent
// goroutine worker pool.
//
// The executor carries the simulator's per-image fan-out, where each chunk
// holds milliseconds of work: infer.PredictBatch and the continual
// trainer's shadow evaluation. (The Fig 4 CARLsim-style mirror still
// splits each of its steps, so its pooled row measures that dispatch
// cost.) These are "for each element in [0, n)" kernels over disjoint
// state, the shape the paper launches as GPU thread grids; Executor.For
// partitions such a range into one contiguous chunk per worker. Training
// is not dispatched: at the paper's 784×1000 operating point a
// network.Present step, plasticity included, is a few µs of work, less
// than a pool handoff costs, so it runs inline. Because every stochastic
// decision in the simulator is counter-based (see internal/rng), the
// parallel executor is bit-identical to the sequential one;
// TestPooledInferMatchesGolden in internal/golden and
// TestMirrorSequentialMatchesParallel in internal/carlsim pin that
// property.
package engine

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"parallelspikesim/internal/obs"
)

// Executor runs range kernels, possibly concurrently.
type Executor interface {
	// For partitions [0, n) into contiguous chunks and invokes
	// fn(chunk, lo, hi) for each; chunk is the worker/partition index in
	// [0, Workers()). For returns after every chunk completes. fn must
	// only touch state owned by its chunk (or indexed by [lo, hi)).
	For(n int, fn func(chunk, lo, hi int))
	// Workers returns the number of partitions For will use.
	Workers() int
	// Close releases pool resources. The executor must not be used after.
	Close()
}

// Auto selects GOMAXPROCS workers when passed to New.
const Auto = -1

// New is the single constructor for executors: 0 or 1 workers select the
// sequential reference implementation, 2 or more a persistent worker pool
// of that size, and any negative value (canonically Auto) a pool sized to
// GOMAXPROCS. Callers that expose a "0 = all cores" flag should translate
// 0 to Auto before calling New.
func New(workers int) Executor {
	switch {
	case workers == 0 || workers == 1:
		return sequential{}
	case workers < 0:
		return newPool(0)
	default:
		return newPool(workers)
	}
}

// Instrument attaches observability to an executor when it supports it
// (currently *Pool): per-chunk kernel time, For-call counts and worker
// utilization are recorded into reg. A nil registry or a sequential
// executor leaves the hot path untouched.
func Instrument(exec Executor, reg *obs.Registry) {
	if p, ok := exec.(*Pool); ok {
		p.Instrument(reg)
	}
}

// sequential executes kernels on the calling goroutine with a single
// partition. It is the reference implementation for determinism tests.
type sequential struct{}

// For invokes fn(0, 0, n) directly.
func (sequential) For(n int, fn func(chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	fn(0, 0, n)
}

// Workers returns 1.
func (sequential) Workers() int { return 1 }

// Close is a no-op.
func (sequential) Close() {}

// Pool is a persistent worker pool. Each worker owns a fixed partition
// index, so per-worker scratch buffers never race.
type Pool struct {
	n       int
	jobs    []chan job
	closed  atomic.Bool
	closeMu sync.Mutex

	// Observability handles; nil (the default) keeps For allocation-free.
	forCalls *obs.Counter
	chunkNs  *obs.Timer
	util     *obs.Gauge
}

type job struct {
	lo, hi int
	fn     func(chunk, lo, hi int)
	wg     *sync.WaitGroup
	pan    *kernelPanic
}

// KernelPanic is the value re-panicked by Pool.For when a kernel panics on
// a worker goroutine: the original panic value plus the worker's stack at
// the point of the panic. Without this translation a worker panic would
// skip its WaitGroup signal and deadlock For forever.
type KernelPanic struct {
	Chunk int    // partition index whose kernel panicked
	Value any    // original panic value
	Stack string // worker stack captured at recover time
}

// String renders the panic for the default panic printer.
func (k KernelPanic) String() string {
	return fmt.Sprintf("engine: kernel panic in worker %d: %v\n%s", k.Chunk, k.Value, k.Stack)
}

// kernelPanic records the first panic among a For call's workers.
type kernelPanic struct {
	once sync.Once
	val  *KernelPanic
}

func (p *kernelPanic) set(chunk int, v any) {
	p.once.Do(func() {
		p.val = &KernelPanic{Chunk: chunk, Value: v, Stack: string(debug.Stack())}
	})
}

// runJob executes one job, converting a kernel panic into a recorded
// KernelPanic so wg.Done always runs and For never deadlocks.
func runJob(chunk int, j job) {
	defer func() {
		if r := recover(); r != nil {
			j.pan.set(chunk, r)
		}
		j.wg.Done()
	}()
	j.fn(chunk, j.lo, j.hi)
}

// Instrument attaches observability to the pool: every chunk execution is
// timed into the engine_chunk_ns histogram, For calls are counted, and
// engine_worker_utilization is set after each dispatch to the fraction of
// worker wall-time spent inside kernels. A nil registry detaches and
// restores the allocation-free fast path.
func (p *Pool) Instrument(reg *obs.Registry) {
	p.forCalls = reg.Counter("engine_for_calls_total")
	p.chunkNs = reg.Timer("engine_chunk_ns")
	p.util = reg.Gauge("engine_worker_utilization")
}

// newPool creates a pool with the given number of workers. workers <= 0
// selects GOMAXPROCS.
func newPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{n: workers, jobs: make([]chan job, workers)}
	for i := range p.jobs {
		ch := make(chan job, 1)
		p.jobs[i] = ch
		go func(chunk int, ch chan job) {
			for j := range ch {
				runJob(chunk, j)
			}
		}(i, ch)
	}
	return p
}

// Workers returns the worker count.
func (p *Pool) Workers() int { return p.n }

// For splits [0, n) into p.n near-equal contiguous chunks and dispatches
// one to each worker, blocking until all finish. Workers with an empty
// chunk are still invoked with lo == hi so chunk-indexed reductions can
// zero their slot.
//
// If a kernel panics on a worker, every other chunk still completes, the
// first panic is captured, and For re-panics on the caller's goroutine
// with a KernelPanic — the pool itself stays usable. Calling For on a
// closed pool panics with a descriptive message rather than a bare "send
// on closed channel".
func (p *Pool) For(n int, fn func(chunk, lo, hi int)) {
	if p.closed.Load() {
		panic("engine: Pool.For called after Close")
	}
	if n <= 0 {
		return
	}
	p.forCalls.Inc()
	var busyNs atomic.Int64
	var wallStart int64
	dispatch := fn
	if p.chunkNs != nil {
		wallStart = time.Now().UnixNano()
		dispatch = func(chunk, lo, hi int) {
			t := time.Now().UnixNano()
			fn(chunk, lo, hi)
			d := time.Now().UnixNano() - t
			p.chunkNs.Observe(d)
			busyNs.Add(d)
		}
	}
	if p.n == 1 {
		dispatch(0, 0, n)
		p.setUtilization(busyNs.Load(), wallStart)
		return
	}
	var wg sync.WaitGroup
	pan := &kernelPanic{}
	wg.Add(p.n)
	for c := 0; c < p.n; c++ {
		lo, hi := Partition(n, p.n, c)
		p.jobs[c] <- job{lo: lo, hi: hi, fn: dispatch, wg: &wg, pan: pan}
	}
	wg.Wait()
	p.setUtilization(busyNs.Load(), wallStart)
	if pan.val != nil {
		panic(*pan.val)
	}
}

// setUtilization records busy/(wall × workers) for the last For call.
func (p *Pool) setUtilization(busyNs int64, wallStart int64) {
	if p.util == nil || wallStart == 0 {
		return
	}
	wall := time.Now().UnixNano() - wallStart
	if wall <= 0 {
		return
	}
	p.util.Set(float64(busyNs) / (float64(wall) * float64(p.n)))
}

// Close shuts the workers down. Safe to call more than once; For must not
// be called afterwards.
func (p *Pool) Close() {
	p.closeMu.Lock()
	defer p.closeMu.Unlock()
	if p.closed.Load() {
		return
	}
	p.closed.Store(true)
	for _, ch := range p.jobs {
		close(ch)
	}
}

// Partition returns the half-open range of chunk c when dividing n items
// into k near-equal contiguous chunks (the first n%k chunks get one extra).
func Partition(n, k, c int) (lo, hi int) {
	if k <= 0 || c < 0 || c >= k {
		panic(fmt.Sprintf("engine: Partition(n=%d, k=%d, c=%d)", n, k, c))
	}
	base := n / k
	rem := n % k
	lo = c*base + min(c, rem)
	hi = lo + base
	if c < rem {
		hi++
	}
	return lo, hi
}
