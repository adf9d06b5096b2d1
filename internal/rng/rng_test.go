package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values from the canonical splitmix64.c with seed 0.
	state := uint64(0)
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
		0xf88bb8a8724c81ec,
		0x1b39896a51a8749b,
	}
	for i, w := range want {
		if got := SplitMix64(&state); got != w {
			t.Fatalf("SplitMix64 output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestHash64Deterministic(t *testing.T) {
	a := Hash64(42, 1, 2, 3)
	b := Hash64(42, 1, 2, 3)
	if a != b {
		t.Fatalf("Hash64 not deterministic: %#x vs %#x", a, b)
	}
}

func TestHash64SensitiveToEachCounter(t *testing.T) {
	base := Hash64(7, 10, 20, 30)
	variants := []uint64{
		Hash64(8, 10, 20, 30),
		Hash64(7, 11, 20, 30),
		Hash64(7, 10, 21, 30),
		Hash64(7, 10, 20, 31),
	}
	for i, v := range variants {
		if v == base {
			t.Errorf("variant %d collided with base %#x", i, base)
		}
	}
}

func TestHash64CounterOrderMatters(t *testing.T) {
	if Hash64(1, 2, 3) == Hash64(1, 3, 2) {
		t.Fatal("Hash64 should be order-sensitive in its counters")
	}
}

func TestHashDecompositionMatchesHash64(t *testing.T) {
	// The piecewise HashInit/HashMix/HashFin pipeline is the contract the
	// sparse encoder's shared-prefix optimisation rests on: folding any
	// prefix of counters early must yield exactly the variadic Hash64.
	prop := func(seed, a, b, c uint64) bool {
		want := Hash64(seed, a, b, c)
		full := HashFin(HashMix(HashMix(HashMix(HashInit(seed), a), b), c))
		// Prefix-folded: (seed, a) folded once, (b, c) appended later — the
		// exact shape of the per-step/per-pixel split in encode.
		pre := HashMix(HashInit(seed), a)
		split := HashFin(HashMix(HashMix(pre, b), c))
		return want == full && want == split
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if Hash64(9) != HashFin(HashInit(9)) {
		t.Fatal("zero-counter decomposition drifted")
	}
}

func TestHashDecompositionFrozenVectors(t *testing.T) {
	// Frozen outputs: the decomposition (and therefore every committed
	// golden digest built on it) must never change across refactors.
	vectors := []struct {
		seed     uint64
		counters []uint64
		want     uint64
	}{
		{0, nil, 0x1ac046dda8e86e2a},
		{42, []uint64{1, 2, 3}, 0xca1b6631eef3e254},
		{0x50c, []uint64{0, 0}, 0xdfdc2f4577c2b32d},
		{^uint64(0), []uint64{^uint64(0)}, 0x0201cbaf5776c8d5},
	}
	for _, v := range vectors {
		if got := Hash64(v.seed, v.counters...); got != v.want {
			t.Errorf("Hash64(%#x, %v) = %#x, want %#x", v.seed, v.counters, got, v.want)
		}
		h := HashInit(v.seed)
		for _, c := range v.counters {
			h = HashMix(h, c)
		}
		if got := HashFin(h); got != v.want {
			t.Errorf("decomposed Hash64(%#x, %v) = %#x, want %#x", v.seed, v.counters, got, v.want)
		}
	}
}

func TestHash64EmptyCountersStillMixed(t *testing.T) {
	if Hash64(0) == 0 {
		t.Fatal("Hash64(0) should not be zero after finalization")
	}
	if Hash64(1) == Hash64(2) {
		t.Fatal("distinct seeds with no counters should differ")
	}
}

func TestUniformRange(t *testing.T) {
	for i := uint64(0); i < 10000; i++ {
		u := Uniform(99, i)
		if u < 0 || u >= 1 {
			t.Fatalf("Uniform out of [0,1): %v at counter %d", u, i)
		}
	}
}

func TestUniformMean(t *testing.T) {
	const n = 200000
	sum := 0.0
	for i := uint64(0); i < n; i++ {
		sum += Uniform(123, i)
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Uniform mean = %v, want ~0.5", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	for i := uint64(0); i < 100; i++ {
		if Bernoulli(0, 1, i) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !Bernoulli(1, 1, i) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if Bernoulli(-0.5, 1, i) {
			t.Fatal("Bernoulli(p<0) returned true")
		}
		if !Bernoulli(1.5, 1, i) {
			t.Fatal("Bernoulli(p>1) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	const n = 100000
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		for i := uint64(0); i < n; i++ {
			if Bernoulli(p, 7, i, uint64(p*1000)) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 0.01 {
			t.Errorf("Bernoulli(%v) frequency = %v", p, got)
		}
	}
}

func TestStreamDeterministicAcrossInstances(t *testing.T) {
	a := NewStream(2024)
	b := NewStream(2024)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with same seed diverged at step %d", i)
		}
	}
}

func TestStreamDifferentSeedsDiverge(t *testing.T) {
	a := NewStream(1)
	b := NewStream(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds matched %d/100 outputs", same)
	}
}

func TestStreamZeroSeedValid(t *testing.T) {
	r := NewStream(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 95 {
		t.Fatalf("zero-seeded stream produced only %d distinct values in 100", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewStream(5)
	child := parent.Split()
	// Child and parent continuation should not be identical sequences.
	same := 0
	for i := 0; i < 64; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("split child tracked parent %d/64 outputs", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewStream(8)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewStream(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := NewStream(77)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("bucket %d count %d deviates >5%% from %v", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewStream(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRange(t *testing.T) {
	r := NewStream(4)
	for i := 0; i < 1000; i++ {
		v := r.Range(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Range(-2,5) = %v", v)
		}
	}
}

func TestFloat64FromProperty(t *testing.T) {
	f := func(u uint64) bool {
		v := Float64From(u)
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Hash64 is a pure function — same inputs, same output — and
// perturbing the seed changes the output with overwhelming probability.
func TestHash64Property(t *testing.T) {
	f := func(seed, c1, c2 uint64) bool {
		return Hash64(seed, c1, c2) == Hash64(seed, c1, c2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(seed, c1 uint64) bool {
		return Hash64(seed, c1) != Hash64(seed+1, c1) || seed == seed+1
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Bernoulli is monotone in p for a fixed draw point: if it fires
// at probability p it must also fire at any p' >= p.
func TestBernoulliMonotoneProperty(t *testing.T) {
	f := func(seed, counter uint64, a, b float64) bool {
		pLo, pHi := math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if pLo > pHi {
			pLo, pHi = pHi, pLo
		}
		if Bernoulli(pLo, seed, counter) && !Bernoulli(pHi, seed, counter) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStreamUint64(b *testing.B) {
	r := NewStream(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkHash64TwoCounters(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = Hash64(42, uint64(i), 7)
	}
	_ = sink
}

func BenchmarkStatelessBernoulli(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Bernoulli(0.3, 42, uint64(i))
	}
}

// A stream restored from a checkpointed state must continue the exact
// sequence of the original — the property training resume relies on.
func TestStreamStateRoundTrip(t *testing.T) {
	orig := NewStream(42)
	for i := 0; i < 17; i++ {
		orig.Uint64()
	}
	state := orig.State()
	restored := NewStream(0)
	if err := restored.SetState(state); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if a, b := orig.Uint64(), restored.Uint64(); a != b {
			t.Fatalf("draw %d diverged: %x vs %x", i, a, b)
		}
	}
}

func TestStreamSetStateRejectsZero(t *testing.T) {
	r := NewStream(1)
	if err := r.SetState([4]uint64{}); err == nil {
		t.Fatal("all-zero state accepted")
	}
	// The failed restore must not clobber the stream.
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("stream degenerated after rejected SetState")
	}
}
