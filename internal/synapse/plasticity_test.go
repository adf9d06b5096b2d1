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
	m.AccumulateSpikesRange([]int{0}, 2.0, cur, 0, 3)
	if cur[0] != 1.0 || cur[1] != 0.5 || cur[2] != 0 {
		t.Fatalf("current = %v", cur)
	}
	m.AccumulateSpikesRange([]int{0}, 2.0, cur, 0, 3)
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

// BenchmarkAccumulateSpikesRange integrates one train-fast-like step: 9
// spiking rows into a 1000-neuron layer.
func BenchmarkAccumulateSpikesRange(b *testing.B) {
	pres := []int{12, 87, 150, 151, 300, 402, 555, 610, 777}
	for _, f := range []fixed.Format{fixed.Q1p7, fixed.Float32} {
		m, _ := NewMatrix(784, 1000, f)
		m.Fill(0.3)
		cur := make([]float64, 1000)
		b.Run(f.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.AccumulateSpikesRange(pres, 1.0, cur, 0, 1000)
			}
		})
	}
}
