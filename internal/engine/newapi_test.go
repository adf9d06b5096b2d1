package engine

import (
	"runtime"
	"sync/atomic"
	"testing"

	"parallelspikesim/internal/obs"
)

func TestNewSelectsImplementation(t *testing.T) {
	for _, workers := range []int{0, 1} {
		exec := New(workers)
		if _, ok := exec.(sequential); !ok {
			t.Errorf("New(%d) = %T, want sequential", workers, exec)
		}
		if exec.Workers() != 1 {
			t.Errorf("New(%d).Workers() = %d", workers, exec.Workers())
		}
		exec.Close()
	}
	exec := New(4)
	if p, ok := exec.(*Pool); !ok || p.Workers() != 4 {
		t.Fatalf("New(4) = %T with %d workers, want *Pool with 4", exec, exec.Workers())
	}
	exec.Close()
	auto := New(Auto)
	if p, ok := auto.(*Pool); !ok || p.Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(Auto) = %T with %d workers, want *Pool with GOMAXPROCS", auto, auto.Workers())
	}
	auto.Close()
}

func TestNewExecutesKernels(t *testing.T) {
	for _, workers := range []int{0, 1, 3, Auto} {
		exec := New(workers)
		var sum atomic.Int64
		exec.For(100, func(chunk, lo, hi int) {
			for i := lo; i < hi; i++ {
				sum.Add(int64(i))
			}
		})
		if got := sum.Load(); got != 4950 {
			t.Errorf("New(%d): sum %d, want 4950", workers, got)
		}
		exec.Close()
	}
}

func TestPoolInstrumentRecordsChunksAndUtilization(t *testing.T) {
	reg := obs.NewRegistry()
	p := newPool(3)
	defer p.Close()
	p.Instrument(reg)

	const calls = 5
	for i := 0; i < calls; i++ {
		p.For(30, func(chunk, lo, hi int) {
			s := 0
			for j := lo; j < hi; j++ {
				s += j
			}
			_ = s
		})
	}
	if got := reg.Counter("engine_for_calls_total").Value(); got != calls {
		t.Errorf("for calls counter = %d, want %d", got, calls)
	}
	if got := reg.Timer("engine_chunk_ns").Count(); got != calls*3 {
		t.Errorf("chunk timer count = %d, want %d", got, calls*3)
	}
	util := reg.Gauge("engine_worker_utilization").Value()
	if util < 0 || util > 1.0001 {
		t.Errorf("utilization %g outside [0, 1]", util)
	}

	// Detaching restores the uninstrumented path.
	p.Instrument(nil)
	p.For(10, func(chunk, lo, hi int) {})
	if got := reg.Counter("engine_for_calls_total").Value(); got != calls {
		t.Errorf("detached pool still counting: %d", got)
	}
}

func TestInstrumentHelperIgnoresSequential(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(New(1), reg) // must not panic
	pool := New(2)
	defer pool.Close()
	Instrument(pool, reg)
	pool.For(4, func(chunk, lo, hi int) {})
	if got := reg.Counter("engine_for_calls_total").Value(); got != 1 {
		t.Errorf("instrumented pool counter = %d, want 1", got)
	}
}
