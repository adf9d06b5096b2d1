package engine

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestPartitionCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 5, 7, 100, 101} {
		for _, k := range []int{1, 2, 3, 8, 13} {
			covered := make([]int, n)
			prevHi := 0
			for c := 0; c < k; c++ {
				lo, hi := Partition(n, k, c)
				if lo != prevHi {
					t.Fatalf("n=%d k=%d c=%d: gap/overlap lo=%d prev hi=%d", n, k, c, lo, prevHi)
				}
				prevHi = hi
				for i := lo; i < hi; i++ {
					covered[i]++
				}
			}
			if prevHi != n {
				t.Fatalf("n=%d k=%d: final hi %d", n, k, prevHi)
			}
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("n=%d k=%d: index %d covered %d times", n, k, i, c)
				}
			}
		}
	}
}

func TestPartitionBalanced(t *testing.T) {
	n, k := 103, 8
	minSz, maxSz := n, 0
	for c := 0; c < k; c++ {
		lo, hi := Partition(n, k, c)
		sz := hi - lo
		if sz < minSz {
			minSz = sz
		}
		if sz > maxSz {
			maxSz = sz
		}
	}
	if maxSz-minSz > 1 {
		t.Fatalf("imbalance: min %d max %d", minSz, maxSz)
	}
}

func TestPartitionPanicsOnBadArgs(t *testing.T) {
	for _, c := range []struct{ n, k, i int }{{10, 0, 0}, {10, 3, -1}, {10, 3, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Partition(%d,%d,%d) did not panic", c.n, c.k, c.i)
				}
			}()
			Partition(c.n, c.k, c.i)
		}()
	}
}

func TestSequentialFor(t *testing.T) {
	var seq sequential
	if seq.Workers() != 1 {
		t.Fatal("sequential workers != 1")
	}
	sum := 0
	seq.For(10, func(chunk, lo, hi int) {
		if chunk != 0 || lo != 0 || hi != 10 {
			t.Fatalf("chunk=%d lo=%d hi=%d", chunk, lo, hi)
		}
		for i := lo; i < hi; i++ {
			sum += i
		}
	})
	if sum != 45 {
		t.Fatalf("sum = %d", sum)
	}
	called := false
	seq.For(0, func(chunk, lo, hi int) { called = true })
	if called {
		t.Fatal("For(0) invoked the kernel")
	}
	seq.Close() // no-op, must not panic
}

func TestPoolForComputesSameAsSequential(t *testing.T) {
	pool := newPool(4)
	defer pool.Close()
	if pool.Workers() != 4 {
		t.Fatalf("workers = %d", pool.Workers())
	}
	const n = 1000
	dst := make([]int, n)
	pool.For(n, func(chunk, lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = i * i
		}
	})
	for i, v := range dst {
		if v != i*i {
			t.Fatalf("dst[%d] = %d", i, v)
		}
	}
}

func TestPoolAllChunksInvoked(t *testing.T) {
	pool := newPool(8)
	defer pool.Close()
	var hits [8]int32
	// n < workers: every chunk still invoked (some empty).
	pool.For(3, func(chunk, lo, hi int) {
		atomic.AddInt32(&hits[chunk], 1)
	})
	for c, h := range hits {
		if h != 1 {
			t.Fatalf("chunk %d invoked %d times", c, h)
		}
	}
}

func TestPoolChunkOwnership(t *testing.T) {
	pool := newPool(4)
	defer pool.Close()
	// Per-chunk accumulators must see disjoint ranges.
	sums := make([]int, 4)
	pool.For(100, func(chunk, lo, hi int) {
		for i := lo; i < hi; i++ {
			sums[chunk] += 1
		}
	})
	total := 0
	for _, s := range sums {
		total += s
	}
	if total != 100 {
		t.Fatalf("total %d", total)
	}
}

func TestPoolReusableAcrossCalls(t *testing.T) {
	pool := newPool(3)
	defer pool.Close()
	var counter int64
	for round := 0; round < 100; round++ {
		pool.For(30, func(chunk, lo, hi int) {
			atomic.AddInt64(&counter, int64(hi-lo))
		})
	}
	if counter != 3000 {
		t.Fatalf("counter = %d", counter)
	}
}

func TestPoolZeroAndNegativeN(t *testing.T) {
	pool := newPool(2)
	defer pool.Close()
	called := false
	pool.For(0, func(chunk, lo, hi int) { called = true })
	pool.For(-5, func(chunk, lo, hi int) { called = true })
	if called {
		t.Fatal("kernel invoked for n<=0")
	}
}

func TestPoolDefaultWorkerCount(t *testing.T) {
	pool := newPool(0)
	defer pool.Close()
	if pool.Workers() < 1 {
		t.Fatalf("workers = %d", pool.Workers())
	}
}

func TestPoolSingleWorkerInline(t *testing.T) {
	pool := newPool(1)
	defer pool.Close()
	sum := 0 // safe without atomics: single worker runs inline
	pool.For(50, func(chunk, lo, hi int) {
		for i := lo; i < hi; i++ {
			sum++
		}
	})
	if sum != 50 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	pool := newPool(2)
	pool.Close()
	pool.Close() // second close must not panic
}

// Regression: a kernel panic used to skip wg.Done and hang For forever.
// Now it must propagate to the For caller as a KernelPanic, with every
// other chunk still completing, and the pool must remain usable.
func TestPoolKernelPanicPropagates(t *testing.T) {
	pool := newPool(4)
	defer pool.Close()

	var otherChunks int32
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("kernel panic swallowed")
			}
			kp, ok := r.(KernelPanic)
			if !ok {
				t.Fatalf("panic value %T, want KernelPanic", r)
			}
			if kp.Value != "kaboom" {
				t.Fatalf("panic value %v", kp.Value)
			}
			if kp.Stack == "" {
				t.Error("no stack captured")
			}
			if kp.String() == "" {
				t.Error("empty rendering")
			}
		}()
		pool.For(100, func(chunk, lo, hi int) {
			if chunk == 2 {
				panic("kaboom")
			}
			atomic.AddInt32(&otherChunks, 1)
		})
	}()
	if otherChunks != 3 {
		t.Fatalf("%d non-panicking chunks ran, want 3", otherChunks)
	}

	// The pool survives a kernel panic.
	var sum int64
	pool.For(40, func(chunk, lo, hi int) {
		atomic.AddInt64(&sum, int64(hi-lo))
	})
	if sum != 40 {
		t.Fatalf("post-panic For sum = %d", sum)
	}
}

// When several chunks panic in the same For call, exactly one panic (the
// first recorded) must surface and For must still return.
func TestPoolAllChunksPanic(t *testing.T) {
	pool := newPool(4)
	defer pool.Close()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("no panic propagated")
		} else if _, ok := r.(KernelPanic); !ok {
			t.Fatalf("panic value %T", r)
		}
	}()
	pool.For(4, func(chunk, lo, hi int) { panic(chunk) })
}

// Regression: For after Close used to die with an opaque "send on closed
// channel"; it must now panic with a clear message.
func TestPoolForAfterClosePanicsClearly(t *testing.T) {
	pool := newPool(2)
	pool.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("For after Close did not panic")
		}
		msg, ok := r.(string)
		if !ok || msg != "engine: Pool.For called after Close" {
			t.Fatalf("panic value %v", r)
		}
	}()
	pool.For(10, func(chunk, lo, hi int) {})
}

// Property: for any (n, k) the partition is a disjoint exact cover.
func TestPartitionProperty(t *testing.T) {
	check := func(rawN, rawK uint16) bool {
		n := int(rawN % 2000)
		k := 1 + int(rawK%32)
		total := 0
		prevHi := 0
		for c := 0; c < k; c++ {
			lo, hi := Partition(n, k, c)
			if lo != prevHi || hi < lo {
				return false
			}
			total += hi - lo
			prevHi = hi
		}
		return total == n && prevHi == n
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPoolFor1000(b *testing.B) {
	pool := newPool(0)
	defer pool.Close()
	dst := make([]float64, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.For(len(dst), func(chunk, lo, hi int) {
			for j := lo; j < hi; j++ {
				dst[j] += 1
			}
		})
	}
}

func BenchmarkSequentialFor1000(b *testing.B) {
	var seq sequential
	dst := make([]float64, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq.For(len(dst), func(chunk, lo, hi int) {
			for j := lo; j < hi; j++ {
				dst[j] += 1
			}
		})
	}
}
