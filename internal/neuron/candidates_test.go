package neuron

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"parallelspikesim/internal/check"
)

// lifLanes gives p's neurons lane states drawn from r that reach every
// branch of the LIF step at time now: membranes spread across the
// threshold, theta offsets, inhibition and refractory timers before, at,
// just after and long after now, and currents that include ±Inf, NaN and
// ±1e308. It returns the currents. Under simcheck, whose membrane
// assertion rejects what those currents produce, every current is finite
// and moderate.
func lifLanes(p *Population, r *rand.Rand, now, dt float64) []float64 {
	prm := p.Params
	timers := []float64{0, now, now - dt, now + dt, math.Nextafter(now, math.Inf(1)), math.Nextafter(now, math.Inf(-1)), math.Inf(1)}
	currents := []float64{0, math.Inf(1), math.Inf(-1), math.NaN(), 1e308, -1e308}
	current := make([]float64, p.Len())
	for i := range p.V {
		p.V[i] = prm.VThreshold + r.NormFloat64()*8
		p.theta[i] = r.Float64() * 3
		p.inhibitedTill[i], p.refractoryTill[i] = 0, 0
		if r.Intn(3) == 0 {
			p.inhibitedTill[i] = timers[r.Intn(len(timers))]
		}
		if r.Intn(3) == 0 {
			p.refractoryTill[i] = timers[r.Intn(len(timers))]
		}
		current[i] = prm.RheobaseCurrent() * 2 * r.Float64()
		if !check.Enabled && r.Intn(8) == 0 {
			current[i] = currents[r.Intn(len(currents))]
		}
	}
	return current
}

// cloneLanes returns a population with p's parameters and lane state.
func cloneLanes(p *Population) *Population {
	q := *p
	q.V = slices.Clone(p.V)
	q.theta = slices.Clone(p.theta)
	q.refractoryTill = slices.Clone(p.refractoryTill)
	q.inhibitedTill = slices.Clone(p.inhibitedTill)
	q.spikeCount = slices.Clone(p.spikeCount)
	return &q
}

// sameLanes fails on the first lane whose membrane or theta bits differ.
func sameLanes(t *testing.T, what string, got, want *Population) {
	t.Helper()
	for i := range want.V {
		if math.Float64bits(got.V[i]) != math.Float64bits(want.V[i]) {
			t.Fatalf("%s: V[%d] = %v, scalar %v", what, i, got.V[i], want.V[i])
		}
		if math.Float64bits(got.theta[i]) != math.Float64bits(want.theta[i]) {
			t.Fatalf("%s: theta[%d] = %v, scalar %v", what, i, got.theta[i], want.theta[i])
		}
	}
}

// checkCandidatesMatch steps p and a clone through [lo, hi) for two steps,
// one through CandidatesRange (the AVX2 kernel where this build and host
// run it) and one through the scalar body, and fails on any difference in
// membranes, thetas or candidates. The second step starts from the
// first's membranes, non-finite ones included.
func checkCandidatesMatch(t *testing.T, p *Population, lo, hi int, dt, now float64, current []float64) {
	t.Helper()
	q := cloneLanes(p)
	adapt := p.Params.ThetaPlus > 0 && !p.FreezeTheta
	thetaDecay := 1.0
	if adapt {
		thetaDecay = math.Exp(-dt / p.Params.ThetaDecayMS)
	}
	prefix := []int{-1, 7} // candidates append after what out holds
	for step := 0; step < 2; step++ {
		t0 := now + float64(step)*dt
		got := p.CandidatesRange(lo, hi, dt, t0, current, slices.Clone(prefix))
		want := q.candidatesGo(lo, hi, dt, t0, thetaDecay, adapt, current, slices.Clone(prefix))
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d [%d,%d) now=%v adapt=%v: candidates %v, scalar %v", p.Len(), lo, hi, t0, adapt, got, want)
		}
		sameLanes(t, "CandidatesRange", p, q)
	}
}

// TestCandidatesRangeMatchesScalar: the dispatched LIF step equals the
// scalar body on every lane for population sizes and windows that are not
// multiples of four, adapting and frozen theta, and timers at the now
// boundaries.
func TestCandidatesRangeMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(0x11f))
	for _, n := range []int{1, 3, 4, 5, 8, 13, 64, 1000} {
		for _, mode := range []struct {
			thetaPlus float64
			frozen    bool
		}{{0, false}, {0.05, false}, {0.05, true}} {
			prm := PaperLIF()
			prm.ThetaPlus, prm.ThetaDecayMS = mode.thetaPlus, 1e5
			p, err := NewPopulation(n, prm)
			if err != nil {
				t.Fatal(err)
			}
			p.FreezeTheta = mode.frozen
			for trial := 0; trial < 8; trial++ {
				now := float64(r.Intn(100))
				current := lifLanes(p, r, now, 1)
				lo := r.Intn(n + 1)
				hi := lo + r.Intn(n-lo+1)
				if trial == 0 {
					lo, hi = 0, n
				}
				checkCandidatesMatch(t, p, lo, hi, 1, now, current)
			}
		}
	}
}

// TestCandidatesRangeThresholdIsStrict: a membrane that lands exactly on
// VThreshold + theta is not a candidate, one ulp above it is, on the
// kernel's lanes and the scalar tail alike.
func TestCandidatesRangeThresholdIsStrict(t *testing.T) {
	prm := PaperLIF()
	const v0, in, dt = -65.0, 20.0, 1.0
	landed := v0 + float64(dt*(prm.A+float64(prm.B*v0)+float64(prm.C*in)))
	for _, th := range []struct {
		vTh  float64
		want int
	}{{landed, 0}, {math.Nextafter(landed, math.Inf(-1)), 10}} {
		p, err := NewPopulation(10, prm)
		if err != nil {
			t.Fatal(err)
		}
		p.Params.VThreshold = th.vTh
		current := make([]float64, 10)
		for i := range p.V {
			p.V[i], current[i] = v0, in
		}
		if got := p.CandidatesRange(0, 10, dt, 0, current, nil); len(got) != th.want {
			t.Errorf("threshold %v, membranes %v: %d candidates, want %d", th.vTh, landed, len(got), th.want)
		}
	}
}

// TestCandidatesRangeSanitizesEveryLane: under simcheck, a membrane driven
// non-finite fails the Euler-step assertion whichever kernel stepped it —
// in the first group of four, in a later group and in the scalar tail —
// and a held lane's current is never looked at.
func TestCandidatesRangeSanitizesEveryLane(t *testing.T) {
	if !check.Enabled {
		t.Skip("needs the simcheck build")
	}
	for _, lane := range []int{0, 6, 9} {
		p, err := NewPopulation(10, PaperLIF())
		if err != nil {
			t.Fatal(err)
		}
		current := make([]float64, 10)
		current[lane] = math.Inf(1)
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "membrane after Euler step") {
					t.Errorf("lane %d: +Inf current recovered %q, want the membrane assertion", lane, msg)
				}
			}()
			p.CandidatesRange(0, 10, 1, 0, current, nil)
		}()
		p.Reset()
		p.inhibitedTill[lane] = 5
		p.CandidatesRange(0, 10, 1, 0, current, nil) // held: no assertion
	}
}

// FuzzCandidatesRange is the differential of TestCandidatesRangeMatchesScalar
// under fuzzer-chosen sizes, windows, clocks, steps and lane states.
func FuzzCandidatesRange(f *testing.F) {
	f.Add(uint16(1000), uint16(0), uint16(1000), uint16(12), false, uint8(1), int64(1))
	f.Add(uint16(13), uint16(1), uint16(12), uint16(0), true, uint8(0), int64(2))
	f.Add(uint16(7), uint16(3), uint16(7), uint16(99), false, uint8(2), int64(3))
	f.Add(uint16(5), uint16(0), uint16(5), uint16(1), true, uint8(3), int64(4))
	f.Fuzz(func(t *testing.T, n, lo, hi, nowSteps uint16, frozen bool, dtSel uint8, seed int64) {
		nn := int(n)%1100 + 1
		l, h := int(lo)%(nn+1), int(hi)%(nn+1)
		if l > h {
			l, h = h, l
		}
		dt := []float64{1, 0.5, 0.1, 2}[dtSel%4]
		prm := PaperLIF()
		prm.ThetaPlus, prm.ThetaDecayMS = 0.05, 1e5
		if dtSel&4 != 0 {
			prm.ThetaPlus = 0
		}
		p, err := NewPopulation(nn, prm)
		if err != nil {
			t.Fatal(err)
		}
		p.FreezeTheta = frozen
		now := float64(nowSteps) * dt
		r := rand.New(rand.NewSource(seed))
		current := lifLanes(p, r, now, dt)
		checkCandidatesMatch(t, p, l, h, dt, now, current)
	})
}

// BenchmarkCandidatesRange steps a 1000-neuron layer at train-fast's
// operating point: adapting theta, drive around rheobase, no neuron held.
func BenchmarkCandidatesRange(b *testing.B) {
	prm := PaperLIF()
	prm.ThetaPlus, prm.ThetaDecayMS = 0.05, 1e5
	p, err := NewPopulation(1000, prm)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	current := make([]float64, 1000)
	for i := range current {
		current[i] = prm.RheobaseCurrent() * r.Float64()
	}
	out := make([]int, 0, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = p.CandidatesRange(0, 1000, 1, float64(i), current, out[:0])
		for _, c := range out {
			p.Suppress(c)
		}
	}
}
