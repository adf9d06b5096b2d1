package synapse

import (
	"math"
	"testing"
	"testing/quick"

	"parallelspikesim/internal/fixed"
	"parallelspikesim/internal/rng"
)

func floatConfig(kind RuleKind) Config {
	cfg, _, _ := PresetConfig(PresetFloat, kind)
	cfg.Seed = 42
	return cfg
}

func newPair(t *testing.T, cfg Config, nPre, nPost int) (*Plasticity, *Matrix) {
	t.Helper()
	m, err := NewMatrix(nPre, nPost, cfg.Format)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlasticity(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	return p, m
}

func TestNewMatrixValidation(t *testing.T) {
	if _, err := NewMatrix(0, 5, fixed.Float32); err == nil {
		t.Error("zero NPre accepted")
	}
	if _, err := NewMatrix(5, -1, fixed.Float32); err == nil {
		t.Error("negative NPost accepted")
	}
	m, err := NewMatrix(3, 4, fixed.Float32)
	if err != nil || m.Len() != 12 {
		t.Fatalf("NewMatrix: %v, len %d", err, m.Len())
	}
}

func TestMatrixAtSetRowColumn(t *testing.T) {
	m, _ := NewMatrix(3, 4, fixed.Float32)
	m.Set(1, 2, 0.5)
	if m.At(1, 2) != 0.5 {
		t.Fatal("At/Set mismatch")
	}
	for post, want := range []fixed.Weight{0, 0, 0.5, 0} {
		if got := m.At(1, post); got != want {
			t.Fatalf("At(1, %d) = %v, want %v", post, got, want)
		}
	}
	col := make([]float64, 3)
	m.Column(2, col)
	if col[1] != 0.5 || col[0] != 0 || col[2] != 0 {
		t.Fatalf("Column = %v", col)
	}
}

func TestMatrixColumnPanicsOnBadLength(t *testing.T) {
	m, _ := NewMatrix(3, 4, fixed.Float32)
	defer func() {
		if recover() == nil {
			t.Fatal("Column with wrong dst length did not panic")
		}
	}()
	m.Column(0, make([]float64, 2))
}

func TestMatrixSetQuantizes(t *testing.T) {
	m, _ := NewMatrix(2, 2, fixed.Q0p2)
	m.Set(0, 0, 0.3) // nearest grid point of Q0.2 is 0.25
	if got := m.At(0, 0); got != 0.25 {
		t.Fatalf("Set did not quantize: %v", got)
	}
}

func TestMatrixInitUniform(t *testing.T) {
	m, _ := NewMatrix(20, 20, fixed.Q1p7)
	m.InitUniform(rng.NewStream(7), 0.2, 0.4)
	minG, maxG, mean := m.Stats()
	if minG < 0.2-m.Format.Step() || maxG > 0.4+m.Format.Step() {
		t.Fatalf("init out of range: min %v max %v", minG, maxG)
	}
	if mean < 0.25 || mean > 0.35 {
		t.Fatalf("init mean %v implausible for U[0.2,0.4]", mean)
	}
	for _, g := range m.Weights() {
		if !m.Format.OnGrid(float64(g)) {
			t.Fatalf("initialized conductance %v off grid", g)
		}
	}
}

func TestMatrixFillAndClone(t *testing.T) {
	m, _ := NewMatrix(2, 3, fixed.Float32)
	m.Fill(0.7)
	for _, g := range m.Weights() {
		if g != 0.7 {
			t.Fatal("Fill incomplete")
		}
	}
	c := m.Clone()
	c.Set(0, 0, 0.1)
	if m.At(0, 0) != 0.7 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestAccumulateSpikesRangeAdds(t *testing.T) {
	m, _ := NewMatrix(2, 3, fixed.Float32)
	m.Set(0, 0, 0.5)
	m.Set(0, 1, 0.25)
	cur := make([]float64, 3)
	m.AccumulateSpikesRange([]int{0}, 2.0, 1, cur, 0, 3)
	if cur[0] != 1.0 || cur[1] != 0.5 || cur[2] != 0 {
		t.Fatalf("current = %v", cur)
	}
	m.AccumulateSpikesRange([]int{0}, 2.0, 1, cur, 0, 3)
	if cur[0] != 2.0 {
		t.Fatal("AccumulateSpikesRange should add, not overwrite")
	}
}

func TestNewPlasticityRejectsFormatMismatch(t *testing.T) {
	cfg := floatConfig(Stochastic)
	m, _ := NewMatrix(2, 2, fixed.Q1p7)
	if _, err := NewPlasticity(cfg, m); err == nil {
		t.Fatal("format mismatch accepted")
	}
}

func TestNewPlasticityRejectsInvalidConfig(t *testing.T) {
	cfg := floatConfig(Stochastic)
	cfg.Det.WindowMS = -1
	m, _ := NewMatrix(2, 2, cfg.Format)
	if _, err := NewPlasticity(cfg, m); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestDeterministicPostSpikeClassification(t *testing.T) {
	cfg := floatConfig(Deterministic)
	p, m := newPair(t, cfg, 3, 1)
	m.Fill(0.5)

	// Pre 0 fired recently (causal), pre 1 long ago, pre 2 never.
	lastPre := []float64{95, 10, Never}
	p.OnPostSpikeRange(0, 100, lastPre, 1, 0, len(lastPre))

	if m.At(0, 0) <= 0.5 {
		t.Errorf("causal synapse not potentiated: %v", m.At(0, 0))
	}
	if m.At(1, 0) >= 0.5 {
		t.Errorf("stale synapse not depressed: %v", m.At(1, 0))
	}
	if m.At(2, 0) >= 0.5 {
		t.Errorf("never-fired synapse not depressed: %v", m.At(2, 0))
	}
}

func TestDeterministicUpdateMagnitudes(t *testing.T) {
	cfg := floatConfig(Deterministic)
	p, m := newPair(t, cfg, 2, 1)
	m.Fill(0.5)
	p.OnPostSpikeRange(0, 100, []float64{99, 0}, 1, 0, 2)
	// eq. 4 at G=0.5: ΔG_p = 0.01·e^{-1.5}
	wantUp := 0.5 + 0.01*math.Exp(-1.5)
	if got := float64(m.At(0, 0)); math.Abs(got-wantUp) > 1e-12 {
		t.Errorf("potentiated G = %v, want %v", got, wantUp)
	}
	// eq. 5 at G=0.5: ΔG_d = 0.005·e^{-1.5}
	wantDown := 0.5 - 0.005*math.Exp(-1.5)
	if got := float64(m.At(1, 0)); math.Abs(got-wantDown) > 1e-12 {
		t.Errorf("depressed G = %v, want %v", got, wantDown)
	}
}

func TestStochasticPostSpikeRespectsProbability(t *testing.T) {
	cfg := floatConfig(Stochastic)
	// γ_pot = 0.9, τ_pot = 30: at Δt = 0 the potentiation probability is
	// 0.9; at Δt = 300 it is ~4e-5.
	const nPost = 4000
	p, m := newPair(t, cfg, 2, nPost)
	m.Fill(0.5)
	lastPre := []float64{100, -200} // pre 0 just fired, pre 1 fired 300ms ago
	for post := 0; post < nPost; post++ {
		p.OnPostSpikeRange(post, 100, lastPre, uint64(post), 0, len(lastPre))
	}
	upRecent, upStale := 0, 0
	for post := 0; post < nPost; post++ {
		if m.At(0, post) > 0.5 {
			upRecent++
		}
		if m.At(1, post) > 0.5 {
			upStale++
		}
	}
	gotRecent := float64(upRecent) / nPost
	if math.Abs(gotRecent-0.9) > 0.03 {
		t.Errorf("P(potentiate | Δt=0) = %v, want ~0.9", gotRecent)
	}
	if upStale > 5 {
		t.Errorf("stale synapses potentiated %d times, want ~0", upStale)
	}
}

func TestStochasticStaleDepressionProbability(t *testing.T) {
	cfg := floatConfig(Stochastic)
	// A pre just outside the window depresses with probability ~γ_dep
	// (PDepEvent at age = W), modulo the small chance the pot roll fired
	// first: P(dep) = (1 − P_pot(W))·P_depEvent(W).
	const nPost = 4000
	p, m := newPair(t, cfg, 1, nPost)
	m.Fill(0.5)
	w := cfg.Det.WindowMS
	lastPre := []float64{100 - w}
	for post := 0; post < nPost; post++ {
		p.OnPostSpikeRange(post, 100, lastPre, uint64(post), 0, len(lastPre))
	}
	down, up := 0, 0
	for post := 0; post < nPost; post++ {
		if m.At(0, post) < 0.5 {
			down++
		}
		if m.At(0, post) > 0.5 {
			up++
		}
	}
	pp := cfg.Stoch.PPot(w)
	want := (1 - pp) * cfg.Stoch.GammaDep
	got := float64(down) / nPost
	if math.Abs(got-want) > 0.03 {
		t.Errorf("P(depress | age=W) = %v, want ~%v", got, want)
	}
	if gotUp := float64(up) / nPost; math.Abs(gotUp-pp) > 0.03 {
		t.Errorf("P(potentiate | age=W) = %v, want ~%v", gotUp, pp)
	}
}

func TestStochasticVeryStaleDepressesAtCeiling(t *testing.T) {
	// A very stale synapse depresses with probability γ_dep per post spike
	// (the stochastic switching ceiling) — not with certainty, which is
	// what preserves memory relative to the deterministic baseline.
	cfg := floatConfig(Stochastic)
	const nPost = 4000
	p, m := newPair(t, cfg, 1, nPost)
	m.Fill(0.5)
	lastPre := []float64{-1000} // ~1.1 s stale
	for post := 0; post < nPost; post++ {
		p.OnPostSpikeRange(post, 100, lastPre, uint64(post), 0, len(lastPre))
	}
	down := 0
	for post := 0; post < nPost; post++ {
		if m.At(0, post) < 0.5 {
			down++
		}
	}
	got := float64(down) / nPost
	if math.Abs(got-cfg.Stoch.GammaDep) > 0.03 {
		t.Errorf("P(depress | very stale) = %v, want ~γ_dep = %v", got, cfg.Stoch.GammaDep)
	}
}
func TestStochasticNeverFiredPreDepresses(t *testing.T) {
	cfg := floatConfig(Stochastic)
	p, m := newPair(t, cfg, 1, 1)
	m.Fill(0.5)
	// A pre that never fired carries no causal evidence: the post-event
	// rule depresses it with certainty (PDepEvent(+Inf) = 1).
	p.OnPostSpikeRange(0, 100, []float64{Never}, 1, 0, 1)
	if m.At(0, 0) >= 0.5 {
		t.Fatalf("never-fired pre not depressed: %v", m.At(0, 0))
	}
}
func TestConductanceStaysInBounds(t *testing.T) {
	for _, kind := range []RuleKind{Deterministic, Stochastic} {
		cfg := floatConfig(kind)
		p, m := newPair(t, cfg, 4, 4)
		m.Fill(0.5)
		lastPre := []float64{100, 100, 0, Never}
		for step := uint64(0); step < 3000; step++ {
			now := 100 + float64(step)
			lastPre[0], lastPre[1] = now-1, now-2
			p.OnPostSpikeRange(int(step)%4, now, lastPre, step, 0, len(lastPre))
		}
		for i, g := range m.Weights() {
			if float64(g) < cfg.Det.GMin-1e-12 || float64(g) > cfg.GCeil()+1e-12 {
				t.Fatalf("%v: conductance %d = %v out of [%v, %v]", kind, i, g, cfg.Det.GMin, cfg.GCeil())
			}
		}
	}
}

func TestQuantizedUpdatesStayOnGrid(t *testing.T) {
	for _, preset := range []Preset{Preset2Bit, Preset4Bit, Preset8Bit, Preset16Bit} {
		for _, mode := range []fixed.Rounding{fixed.Truncate, fixed.Nearest, fixed.Stochastic} {
			cfg, _, _ := PresetConfig(preset, Stochastic)
			cfg.Rounding = mode
			cfg.Seed = 5
			p, m := newPair(t, cfg, 4, 4)
			m.InitUniform(rng.NewStream(3), 0.2, 0.6)
			lastPre := []float64{99, 98, 50, Never}
			for step := uint64(0); step < 500; step++ {
				now := 100 + float64(step)
				p.OnPostSpikeRange(int(step)%4, now, lastPre, step, 0, len(lastPre))
				lastPre[int(step)%4] = now
			}
			for i, g := range m.Weights() {
				if !cfg.Format.OnGrid(float64(g)) {
					t.Fatalf("%s/%s: conductance %d = %v off grid", preset, mode, i, g)
				}
			}
		}
	}
}

func TestLowBitFullStepSlamming(t *testing.T) {
	// At ≤8-bit every LTP/LTD event moves exactly one quantization step
	// (paper: ΔG = 1/2^n). Under the deterministic rule this slams
	// conductances between the rails — the §IV-D memory-loss mechanism —
	// regardless of the rounding option.
	cfg, _, _ := PresetConfig(Preset8Bit, Deterministic)
	cfg.Rounding = fixed.Truncate
	cfg.Seed = 11
	p, m := newPair(t, cfg, 2, 1)
	m.Fill(0.5)
	for step := uint64(0); step < 300; step++ {
		now := 100 + float64(step)
		// pre 0 always recent (potentiation), pre 1 always stale (depression).
		p.OnPostSpikeRange(0, now, []float64{now - 1, 0}, step, 0, 2)
	}
	if got := m.At(1, 0); got > 0.01 {
		t.Errorf("stale synapse should collapse to Gmin, G = %v", got)
	}
	if got := float64(m.At(0, 0)); got < cfg.GCeil()-1e-9 {
		t.Errorf("recent synapse should saturate at GCeil, G = %v", got)
	}
}
func TestStochasticRoundingPreservesDrift(t *testing.T) {
	// With stochastic rounding the same sub-step potentiation stream must
	// show upward drift in expectation — this is why Table II's stochastic
	// rounding column dominates truncation.
	cfg, _, _ := PresetConfig(Preset8Bit, Deterministic)
	cfg.Rounding = fixed.Stochastic
	cfg.Seed = 11
	const trials = 200
	sum := 0.0
	for tr := 0; tr < trials; tr++ {
		p, m := newPair(t, cfg, 1, 1)
		m.Fill(0.25)
		for step := uint64(0); step < 50; step++ {
			now := 100 + float64(step)
			p.OnPostSpikeRange(0, now, []float64{now - 1}, step+uint64(tr)*1000, 0, 1)
		}
		sum += float64(m.At(0, 0))
	}
	mean := sum / trials
	if mean <= 0.3 {
		t.Errorf("stochastic rounding mean conductance %v shows no upward drift", mean)
	}
}

func TestDeterministicReproducible(t *testing.T) {
	run := func() []fixed.Weight {
		cfg := floatConfig(Deterministic)
		p, m := newPair(t, cfg, 8, 8)
		m.InitUniform(rng.NewStream(1), 0.2, 0.4)
		lastPre := make([]float64, 8)
		for i := range lastPre {
			lastPre[i] = float64(i * 13 % 7)
		}
		for step := uint64(0); step < 100; step++ {
			p.OnPostSpikeRange(int(step)%8, 100+float64(step), lastPre, step, 0, len(lastPre))
		}
		return m.Weights()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("deterministic run diverged at synapse %d", i)
		}
	}
}

func TestStochasticReproducibleSameSeed(t *testing.T) {
	run := func(seed uint64) []fixed.Weight {
		cfg := floatConfig(Stochastic)
		cfg.Seed = seed
		p, m := newPair(t, cfg, 8, 8)
		m.InitUniform(rng.NewStream(1), 0.2, 0.4)
		lastPre := make([]float64, 8)
		for i := range lastPre {
			lastPre[i] = 95 + float64(i%3)
		}
		for step := uint64(0); step < 200; step++ {
			now := 100 + float64(step)
			p.OnPostSpikeRange(int(step)%8, now, lastPre, step, 0, len(lastPre))
		}
		return m.Weights()
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed stochastic run diverged at synapse %d", i)
		}
	}
	c := run(8)
	diff := 0
	for i := range a {
		if a[i] != c[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical conductances")
	}
}

// TestOnPostSpikeRangeMatchesFull: a column update split into disjoint pre
// ranges equals the whole-column update.
func TestOnPostSpikeRangeMatchesFull(t *testing.T) {
	mk := func() (*Plasticity, *Matrix) {
		cfg := floatConfig(Stochastic)
		cfg.Seed = 3
		m, _ := NewMatrix(16, 4, cfg.Format)
		m.Fill(0.5)
		p, _ := NewPlasticity(cfg, m)
		return p, m
	}
	p1, m1 := mk()
	p2, m2 := mk()
	lastPre := make([]float64, 16)
	for i := range lastPre {
		lastPre[i] = 60 + float64(i*5)
	}
	p1.OnPostSpikeRange(2, 100, lastPre, 33, 0, len(lastPre))
	p2.OnPostSpikeRange(2, 100, lastPre, 33, 0, 7)
	p2.OnPostSpikeRange(2, 100, lastPre, 33, 7, 16)
	w1, w2 := m1.Weights(), m2.Weights()
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("range split diverged at synapse %d: %v vs %v", i, w1[i], w2[i])
		}
	}
}
func TestCounters(t *testing.T) {
	cfg := floatConfig(Deterministic)
	p, m := newPair(t, cfg, 3, 1)
	m.Fill(0.5)
	p.OnPostSpikeRange(0, 100, []float64{99, 0, Never}, 1, 0, 3)
	pot, dep := p.Counters()
	if pot != 1 || dep != 2 {
		t.Fatalf("counters pot=%d dep=%d, want 1/2", pot, dep)
	}
	p.ResetCounters()
	pot, dep = p.Counters()
	if pot != 0 || dep != 0 {
		t.Fatal("ResetCounters did not clear")
	}
}

// Property: an update never moves a conductance by more than one
// quantization step plus the raw magnitude, and never off-grid, for any
// starting grid point.
func TestUpdateBoundedProperty(t *testing.T) {
	cfg, _, _ := PresetConfig(Preset8Bit, Deterministic)
	cfg.Rounding = fixed.Nearest
	check := func(code uint8, recent bool) bool {
		m, _ := NewMatrix(1, 1, cfg.Format)
		g0 := cfg.Format.FromCode(uint32(code))
		if g0 > cfg.GCeil() {
			g0 = cfg.GCeil()
		}
		m.SetWeight(0, 0, cfg.Format.QuantizeWeight(g0, fixed.Nearest, 0))
		g0 = float64(m.At(0, 0))
		p, _ := NewPlasticity(cfg, m)
		last := 0.0
		if recent {
			last = 99.5
		}
		p.OnPostSpikeRange(0, 100, []float64{last}, 7, 0, 1)
		g1 := float64(m.At(0, 0))
		if !cfg.Format.OnGrid(g1) {
			return false
		}
		return math.Abs(g1-g0) <= cfg.Format.Step()+1.0/256+1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// onPostSpikeReference is the per-synapse loop OnPostSpikeRange ran before
// its stochastic arm was folded, kept as the oracle: both closed-form
// probabilities evaluated for every synapse, a full Hash64 per roll, one
// counter add per update.
func onPostSpikeReference(p *Plasticity, post int, now float64, lastPre []float64, step uint64, lo, hi int) {
	w := p.Cfg.Det.WindowMS
	switch p.Cfg.Kind {
	case Deterministic:
		for pre := lo; pre < hi; pre++ {
			if now-lastPre[pre] <= w {
				p.applyPot(pre, post, step)
				p.potApplied.Add(1)
			} else {
				p.applyDep(pre, post, step)
				p.depApplied.Add(1)
			}
		}
	case Stochastic:
		for pre := lo; pre < hi; pre++ {
			dt := now - lastPre[pre]
			if pp := p.Cfg.Stoch.PPot(dt); pp > 0 {
				if rng.Bernoulli(pp, p.Cfg.Seed, tagPotRoll, step, uint64(pre), uint64(post)) {
					p.applyPot(pre, post, step)
					p.potApplied.Add(1)
					continue
				}
			}
			if pd := p.Cfg.Stoch.PDepEvent(dt, w); pd > 0 {
				if rng.Bernoulli(pd, p.Cfg.Seed, tagDepRoll, step, uint64(pre), uint64(post)) {
					p.applyDep(pre, post, step)
					p.depApplied.Add(1)
				}
			}
		}
	}
}

// FuzzOnPostSpikeMatchesReference: OnPostSpikeRange moves every weight and
// counter exactly as the reference loop does, across formats (float32,
// flat-step Q1.7, Q1.15 with stochastic rounding), both rules, γ at 0, 1
// and in between, and ages on every edge the stochastic kernel
// distinguishes: never fired, negative, 0, fractional, around the LTP
// window, around the threshold table's end, and far beyond it. Up to 256
// pres, split at a fuzzed point, reach every block shape of the kernel:
// whole 64-pre blocks, a short last block, ranges that start off the
// 8-lane grid and cross a block edge. Posts run up to 1023.
func FuzzOnPostSpikeMatchesReference(f *testing.F) {
	f.Add(uint8(1), true, uint8(1), 0.37, 100.0, uint64(1), uint64(9), uint16(8), uint16(0), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 130, 140, 200})
	f.Add(uint8(0), true, uint8(2), 0.0, 2000.0, uint64(5), uint64(1), uint16(2), uint16(1000), []byte{3, 3, 130, 131, 255})
	f.Add(uint8(2), true, uint8(0), 0.5, 50.5, uint64(7), uint64(3), uint16(2), uint16(5), []byte{6, 7, 8, 200, 201})
	f.Add(uint8(2), false, uint8(1), 0.9, 1024.0, uint64(2), uint64(4), uint16(3), uint16(64), []byte{0, 7, 8, 9, 129})
	long := make([]byte, 200)
	for i := range long {
		long[i] = byte(i*37 + i/7)
	}
	f.Add(uint8(1), true, uint8(1), 0.25, 100.0, uint64(3), uint64(11), uint16(61), uint16(1021), long)
	f.Add(uint8(0), true, uint8(1), 0.6, 100.0, uint64(4), uint64(12), uint16(133), uint16(389), long)
	f.Fuzz(func(t *testing.T, format uint8, stochastic bool, gammaSel uint8, gamma, now float64, seed, step uint64, split, postSel uint16, ageSel []byte) {
		kind := Deterministic
		if stochastic {
			kind = Stochastic
		}
		var cfg Config
		switch format % 3 {
		case 0:
			cfg, _, _ = PresetConfig(PresetFloat, kind)
		case 1:
			cfg, _, _ = PresetConfig(PresetHighFreq, kind)
			cfg.Format = fixed.Q1p7
			cfg.Rounding = fixed.Stochastic
		case 2:
			cfg, _, _ = PresetConfig(Preset16Bit, kind)
		}
		cfg.Seed = seed
		if math.IsNaN(gamma) || math.IsInf(gamma, 0) {
			gamma = 0.5
		}
		g := math.Abs(gamma) - math.Floor(math.Abs(gamma))
		switch gammaSel % 3 {
		case 0:
			cfg.Stoch.GammaPot, cfg.Stoch.GammaDep = 0, 0
		case 1:
			cfg.Stoch.GammaPot, cfg.Stoch.GammaDep = g, 1-g
		case 2:
			cfg.Stoch.GammaPot, cfg.Stoch.GammaDep = 1, 1
		}
		if math.IsNaN(now) || math.IsInf(now, 0) {
			now = 100
		}
		w := cfg.Det.WindowMS
		edges := []float64{
			math.Inf(1), -1, -0.25, 0, 0.5, 3.75,
			w - 1, w, w + 1,
			ageTabLen - 1, ageTabLen, ageTabLen + 1, 1e300,
		}
		if len(ageSel) == 0 || len(ageSel) > 256 {
			return
		}
		lastPre := make([]float64, len(ageSel))
		for i, b := range ageSel {
			age := edges[int(b)%len(edges)]
			if b >= 128 {
				age = float64(b - 128) // whole-ms ages 0–127
			}
			lastPre[i] = now - age
			if math.IsInf(age, 1) {
				lastPre[i] = Never
			}
		}
		cut := int(split) % (len(lastPre) + 1)
		post0 := int(postSel) % 1022
		mk := func() *Plasticity {
			m, err := NewMatrix(len(lastPre), post0+2, cfg.Format)
			if err != nil {
				t.Fatal(err)
			}
			m.InitUniform(rng.NewStream(seed), 0, cfg.GCeil())
			p, err := NewPlasticity(cfg, m)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		got, want := mk(), mk()
		if format%3 == 1 && !got.fastStep {
			t.Fatal("Q1.7 at the high-frequency preset is not on the flat-step path")
		}
		// Three spikes on two posts, a repeat so saturation is reached from
		// both sides, and a range split at cut.
		for i, post := range []int{post0, post0 + 1, post0} {
			s := step + uint64(i)
			got.OnPostSpikeRange(post, now, lastPre, s, 0, cut)
			got.OnPostSpikeRange(post, now, lastPre, s, cut, len(lastPre))
			onPostSpikeReference(want, post, now, lastPre, s, 0, len(lastPre))
		}
		gw, ww := got.M.Weights(), want.M.Weights()
		for i := range gw {
			if gw[i] != ww[i] {
				t.Fatalf("synapse %d: got %v, reference %v (lastPre %v)", i, gw[i], ww[i], lastPre)
			}
		}
		gp, gd := got.Counters()
		wp, wd := want.Counters()
		if gp != wp || gd != wd {
			t.Fatalf("counters pot %d/%d dep %d/%d (got/reference)", gp, wp, gd, wd)
		}
	})
}

// TestAgeTablesMatchClosedForm: at every tabled age, the never-fired
// slot included, the threshold splits the 53-bit draws exactly where the
// stochastic rule's roll against the closed form does: draw thr−1 passes
// and draw thr fails, for u < γ && rng.Bernoulli's decision on u. The
// sweep over fractional and extreme ages checks the closed-form fallback
// the same way, and the ceiling P ≤ γ that drawThreshold's argument uses.
func TestAgeTablesMatchClosedForm(t *testing.T) {
	// roll is u < γ && Bernoulli(prob) on the draw u = d·2⁻⁵³.
	roll := func(d uint64, prob, gamma float64) bool {
		u := rng.Float64From(d << 11)
		return u < gamma && prob > 0 && (prob >= 1 || u < prob)
	}
	const draws = 1 << 53
	edge := func(what string, age float64, thr uint64, prob, gamma float64) {
		t.Helper()
		if thr > draws {
			t.Fatalf("%s at age %v: threshold %d above 2^53", what, age, thr)
		}
		if thr > 0 && !roll(thr-1, prob, gamma) {
			t.Fatalf("%s at age %v: draw thr−1 = %d fails (P %v, γ %v)", what, age, thr-1, prob, gamma)
		}
		if thr < draws && roll(thr, prob, gamma) {
			t.Fatalf("%s at age %v: draw thr = %d passes (P %v, γ %v)", what, age, thr, prob, gamma)
		}
	}
	gammas := []float64{0, 1e-9, 0.2, 0.3, 0.5, 0.9, 0.999999, 1}
	for _, preset := range PresetNames() {
		for _, gp := range gammas {
			cfg, _, err := PresetConfig(preset, Stochastic)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Stoch.GammaPot, cfg.Stoch.GammaDep = gp, 1-gp
			st, w := cfg.Stoch, cfg.Det.WindowMS
			p, _ := newPair(t, cfg, 1, 1)
			if len(p.thr) != ageTabLen+1 {
				t.Fatalf("%s: table has %d entries, want %d", preset, len(p.thr), ageTabLen+1)
			}
			check := func(age float64, thr rollThr) {
				t.Helper()
				pp := 0.0
				if age >= 0 && !math.IsInf(age, 1) {
					pp = st.PPot(age)
				}
				edge("LTP", age, thr.pot, pp, st.GammaPot)
				edge("LTD", age, thr.dep, st.PDepEvent(age, w), st.GammaDep)
				if pp > st.GammaPot || st.PDepEvent(age, w) > st.GammaDep {
					t.Fatalf("%s: P at age %v above γ", preset, age)
				}
			}
			for k := range ageTabLen {
				check(float64(k), p.thr[k])
			}
			check(math.Inf(1), p.thr[ageTabLen])
			s := rng.NewStream(math.Float64bits(gp))
			for i := 0; i < 2000; i++ {
				age := math.Ldexp(s.Float64(), s.Intn(80)-60) // 2^-60 … 2^20 ms
				if i%4 == 0 {
					age = -age
				}
				thr, ok := p.rollThr(age)
				if !ok {
					thr = p.thrAt(age)
				}
				check(age, thr)
			}
		}
	}
	det, _ := newPair(t, floatConfig(Deterministic), 1, 1)
	if det.thr != nil {
		t.Fatal("deterministic rule built a stochastic threshold table")
	}
}

// FuzzRollDraws: the dispatching rollDraws, which runs the AVX-512 kernel
// on the whole groups of eight where the host has it, leaves exactly
// rollDrawsGo's draws, over random keys, posts, first pres and lengths
// 0–200, and writes nothing past the range.
func FuzzRollDraws(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint16(0), uint32(0), uint8(64))
	f.Add(uint64(0), ^uint64(0), uint16(1023), uint32(783), uint8(7))
	f.Add(uint64(0x9e3779b97f4a7c15), uint64(3), uint16(389), uint32(61), uint8(200))
	f.Fuzz(func(t *testing.T, hPot, hDep uint64, post uint16, lo uint32, n uint8) {
		if n > 200 {
			return
		}
		const guard = 8
		got := make([]uint64, 2*(int(n)+guard))
		want := make([]uint64, len(got))
		for i := range got {
			got[i], want[i] = ^uint64(i), ^uint64(i)
		}
		gp, gd := got[:n], got[int(n)+guard:2*int(n)+guard]
		wp, wd := want[:n], want[int(n)+guard:2*int(n)+guard]
		rollDraws(hPot, hDep, int(post), int(lo), gp, gd)
		rollDrawsGo(hPot, hDep, int(post), int(lo), wp, wd)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("word %d (n %d): got %#x, want %#x", i, n, got[i], want[i])
			}
		}
	})
}

func BenchmarkDeterministicPostSpike784(b *testing.B) {
	cfg := floatConfig(Deterministic)
	m, _ := NewMatrix(784, 100, cfg.Format)
	m.Fill(0.5)
	p, _ := NewPlasticity(cfg, m)
	lastPre := make([]float64, 784)
	for i := range lastPre {
		lastPre[i] = float64(i % 100)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.OnPostSpikeRange(i%100, 100, lastPre, uint64(i), 0, len(lastPre))
	}
}

func BenchmarkStochasticPostSpike784(b *testing.B) {
	cfg := floatConfig(Stochastic)
	m, _ := NewMatrix(784, 100, cfg.Format)
	m.Fill(0.5)
	p, _ := NewPlasticity(cfg, m)
	lastPre := make([]float64, 784)
	for i := range lastPre {
		lastPre[i] = 95
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.OnPostSpikeRange(i%100, 100, lastPre, uint64(i), 0, len(lastPre))
	}
}

// BenchmarkStochasticPostSpikeTrainFast is one post spike of the train-fast
// workload: 784×1000 Q1.7 at the high-frequency preset, every pre's age a
// whole ms from its own 5–78 Hz Poisson train over a 100 ms presentation
// (Never if it has not fired).
func BenchmarkStochasticPostSpikeTrainFast(b *testing.B) {
	benchHighFreqPostSpike(b, fixed.Q1p7)
}

// BenchmarkStochasticPostSpikeHighFreqFloat32 is the same post spike on
// the float32 store the highfreq preset trains by default.
func BenchmarkStochasticPostSpikeHighFreqFloat32(b *testing.B) {
	benchHighFreqPostSpike(b, fixed.Float32)
}

// benchHighFreqPostSpike times post spikes on a 784×1000 store of format f
// at the high-frequency preset. The posts are scattered, (i·389) mod 1000,
// so consecutive spikes touch different cache lines of every row, as a
// winner-take-all layer's spikes do; cycling posts in order would let
// neighbouring spikes share them.
func benchHighFreqPostSpike(b *testing.B, f fixed.Format) {
	cfg, ctl, _ := PresetConfig(PresetHighFreq, Stochastic)
	if f != cfg.Format {
		cfg.Format = f
		cfg.Rounding = fixed.Stochastic
	}
	cfg.Seed = 1
	m, _ := NewMatrix(784, 1000, cfg.Format)
	m.InitUniform(rng.NewStream(2), 0, cfg.GCeil())
	p, _ := NewPlasticity(cfg, m)
	s := rng.NewStream(3)
	const now = 100.0
	lastPre := make([]float64, 784)
	for i := range lastPre {
		hz := s.Range(ctl.Band.MinHz, ctl.Band.MaxHz)
		lastPre[i] = Never
		for t := 1.0; t <= now; t++ {
			if s.Float64() < hz/1000 {
				lastPre[i] = t
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.OnPostSpikeRange((i*389)%1000, now, lastPre, uint64(i), 0, len(lastPre))
	}
}

// BenchmarkRollDraws fills one train-fast post spike's 784 × 2 draws,
// through the dispatch (the AVX-512 kernel where the host has it) and
// through rollDrawsGo.
func BenchmarkRollDraws(b *testing.B) {
	pot, dep := make([]uint64, 784), make([]uint64, 784)
	for _, k := range []struct {
		name string
		fn   func(hPot, hDep uint64, post, lo int, pot, dep []uint64)
	}{{"dispatch", rollDraws}, {"go", rollDrawsGo}} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.fn(uint64(i), ^uint64(i), i%1000, 0, pot, dep)
			}
		})
	}
}

// BenchmarkAccumulateSpikesRange integrates one train-fast-like step: the
// current decay and 9 spiking rows into a 1000-neuron layer.
func BenchmarkAccumulateSpikesRange(b *testing.B) {
	pres := []int{12, 87, 150, 151, 300, 402, 555, 610, 777}
	for _, f := range []fixed.Format{fixed.Q1p7, fixed.Float32} {
		m, _ := NewMatrix(784, 1000, f)
		m.Fill(0.3)
		cur := make([]float64, 1000)
		b.Run(f.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.AccumulateSpikesRange(pres, 1.0, math.Exp(-0.25), cur, 0, 1000)
			}
		})
	}
}
