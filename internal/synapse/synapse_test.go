package synapse

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/fixed"
)

func TestRuleKindString(t *testing.T) {
	if Deterministic.String() != "deterministic" || Stochastic.String() != "stochastic" {
		t.Fatal("RuleKind.String mismatch")
	}
}

func TestParseRule(t *testing.T) {
	for _, c := range []struct {
		in   string
		want RuleKind
	}{
		{"deterministic", Deterministic}, {"det", Deterministic}, {"baseline", Deterministic},
		{"stochastic", Stochastic}, {"stoch", Stochastic},
	} {
		got, err := ParseRule(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseRule(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseRule("magic"); err == nil {
		t.Error("unknown rule accepted")
	}
}

// TestParseRuleRoundTrip checks that every rule's name parses back to the
// rule: callers holding a typed RuleKind pass it to config.Model as
// k.String(). The walk stops at the first value String does not name.
func TestParseRuleRoundTrip(t *testing.T) {
	n := 0
	for k := RuleKind(0); !strings.HasPrefix(k.String(), "RuleKind("); k++ {
		got, err := ParseRule(k.String())
		if err != nil || got != k {
			t.Errorf("ParseRule(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
		n++
	}
	if n != 2 {
		t.Errorf("walked %d rules, want 2", n)
	}
}

func TestDetParamsValidate(t *testing.T) {
	good := DetParams{AlphaP: 0.01, BetaP: 3, AlphaD: 0.005, BetaD: 3, GMax: 1, GMin: 0, WindowMS: 20}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := good
	bad.GMax = 0
	if bad.Validate() == nil {
		t.Error("GMax <= GMin accepted")
	}
	bad = good
	bad.AlphaP = -1
	if bad.Validate() == nil {
		t.Error("negative alpha accepted")
	}
	bad = good
	bad.WindowMS = 0
	if bad.Validate() == nil {
		t.Error("zero window accepted")
	}
}

func TestStochParamsValidate(t *testing.T) {
	good := StochParams{GammaPot: 0.9, TauPotMS: 30, GammaDep: 0.9, TauDepMS: 10}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := good
	bad.GammaPot = 1.5
	if bad.Validate() == nil {
		t.Error("gamma > 1 accepted")
	}
	bad = good
	bad.TauDepMS = 0
	if bad.Validate() == nil {
		t.Error("zero tau accepted")
	}
}

func TestPPotShape(t *testing.T) {
	s := StochParams{GammaPot: 0.9, TauPotMS: 30, GammaDep: 0.9, TauDepMS: 10}
	// Peak at Δt = 0.
	if got := s.PPot(0); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("PPot(0) = %v, want 0.9", got)
	}
	// Monotone decreasing in Δt (eq. 6: smaller Δt → stronger causality).
	prev := s.PPot(0)
	for dt := 1.0; dt <= 100; dt += 1 {
		cur := s.PPot(dt)
		if cur > prev {
			t.Fatalf("PPot not decreasing at dt=%v", dt)
		}
		prev = cur
	}
	// Anti-causal pairs never potentiate.
	if s.PPot(-1) != 0 {
		t.Error("PPot(-1) != 0")
	}
	// One time constant down: γ·e^{-1}.
	if got := s.PPot(30); math.Abs(got-0.9*math.Exp(-1)) > 1e-12 {
		t.Errorf("PPot(τ) = %v", got)
	}
	// A neuron that never spiked must not potentiate.
	if s.PPot(math.Inf(1)) != 0 {
		t.Error("PPot(+Inf) != 0")
	}
}

func TestPDepShape(t *testing.T) {
	s := StochParams{GammaPot: 0.9, TauPotMS: 30, GammaDep: 0.9, TauDepMS: 10}
	if got := s.PDep(0); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("PDep(0) = %v, want 0.9", got)
	}
	// Monotone increasing in signed Δt toward 0 (paper: "probability is
	// higher when Δt is larger" for depression, Δt < 0).
	prev := s.PDep(-100)
	for dt := -99.0; dt <= 0; dt += 1 {
		cur := s.PDep(dt)
		if cur < prev {
			t.Fatalf("PDep not increasing at dt=%v", dt)
		}
		prev = cur
	}
	if s.PDep(1) != 0 {
		t.Error("PDep(+1) != 0 for causal pair")
	}
	if got := s.PDep(-10); math.Abs(got-0.9*math.Exp(-1)) > 1e-12 {
		t.Errorf("PDep(-τ) = %v", got)
	}
	if s.PDep(math.Inf(-1)) != 0 {
		t.Error("PDep(-Inf) != 0")
	}
}

func TestProbabilitiesSaturateAtOne(t *testing.T) {
	s := StochParams{GammaPot: 1.0, TauPotMS: 1e-9, GammaDep: 1.0, TauDepMS: 30}
	if got := s.PPot(0); got > 1 {
		t.Errorf("PPot > 1: %v", got)
	}
	if got := s.PDep(0); got > 1 {
		t.Errorf("PDep > 1: %v", got)
	}
}

func TestPresetConfigTable1(t *testing.T) {
	// Spot-check the Table I rows.
	cfg, _, err := PresetConfig(Preset2Bit, Stochastic)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Format != fixed.Q0p2 {
		t.Errorf("2bit format = %v", cfg.Format)
	}
	if cfg.Stoch.GammaPot != 0.2 || cfg.Stoch.TauPotMS != 20 || cfg.Stoch.GammaDep != 0.2 || cfg.Stoch.TauDepMS != 10 {
		t.Errorf("2bit stochastic params = %+v", cfg.Stoch)
	}

	cfg, _, _ = PresetConfig(Preset16Bit, Deterministic)
	if cfg.Format != fixed.Q1p15 {
		t.Errorf("16bit format = %v", cfg.Format)
	}
	if cfg.Det.AlphaP != 0.01 || cfg.Det.BetaP != 3 || cfg.Det.AlphaD != 0.005 || cfg.Det.BetaD != 3 {
		t.Errorf("16bit det params = %+v", cfg.Det)
	}
	if cfg.Det.GMax != 1.0 || cfg.Det.GMin != 0 {
		t.Errorf("16bit bounds = %+v", cfg.Det)
	}

	cfg, _, _ = PresetConfig(PresetHighFreq, Stochastic)
	if cfg.Stoch.GammaPot != 0.3 || cfg.Stoch.TauPotMS != 80 || cfg.Stoch.GammaDep != 0.2 || cfg.Stoch.TauDepMS != 5 {
		t.Errorf("highfreq stochastic params = %+v", cfg.Stoch)
	}

	// Each row's operating point, under either rule: the five precision
	// rows run the 1–22 Hz / 500 ms baseline, highfreq the 5–78 Hz /
	// 100 ms fast-learning control (§IV-C). Callers take the control from
	// here instead of special-casing highfreq.
	want := map[Preset]encode.Control{
		Preset2Bit:     {Band: encode.Band{MinHz: 1, MaxHz: 22}, TLearnMS: 500},
		Preset4Bit:     {Band: encode.Band{MinHz: 1, MaxHz: 22}, TLearnMS: 500},
		Preset8Bit:     {Band: encode.Band{MinHz: 1, MaxHz: 22}, TLearnMS: 500},
		Preset16Bit:    {Band: encode.Band{MinHz: 1, MaxHz: 22}, TLearnMS: 500},
		PresetFloat:    {Band: encode.Band{MinHz: 1, MaxHz: 22}, TLearnMS: 500},
		PresetHighFreq: {Band: encode.Band{MinHz: 5, MaxHz: 78}, TLearnMS: 100},
	}
	for _, p := range PresetNames() {
		for _, kind := range []RuleKind{Deterministic, Stochastic} {
			_, ctl, err := PresetConfig(p, kind)
			if err != nil {
				t.Fatalf("%s/%v: %v", p, kind, err)
			}
			if w, ok := want[p]; !ok || ctl != w {
				t.Errorf("%s/%v control = %+v, want %+v", p, kind, ctl, w)
			}
		}
	}

	if _, _, err := PresetConfig(Preset("bogus"), Stochastic); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestPresetNamesCoverAllRows(t *testing.T) {
	names := PresetNames()
	if len(names) != 6 {
		t.Fatalf("PresetNames returned %d rows", len(names))
	}
	for _, n := range names {
		if _, _, err := PresetConfig(n, Stochastic); err != nil {
			t.Errorf("preset %q unavailable: %v", n, err)
		}
	}
}

func TestPotMagnitudeSoftBound(t *testing.T) {
	cfg, _, _ := PresetConfig(PresetFloat, Deterministic)
	// ΔG_p shrinks as G approaches GMax (eq. 4).
	low := cfg.potMagnitude(0.0)
	high := cfg.potMagnitude(0.9)
	if low <= high {
		t.Errorf("potentiation magnitude should shrink near GMax: ΔG(0)=%v ΔG(0.9)=%v", low, high)
	}
	if math.Abs(low-0.01) > 1e-12 {
		t.Errorf("ΔG_p at GMin = %v, want α_p", low)
	}
	if math.Abs(high-0.01*math.Exp(-3*0.9)) > 1e-12 {
		t.Errorf("ΔG_p(0.9) = %v", high)
	}
}

func TestDepMagnitudeSoftBound(t *testing.T) {
	cfg, _, _ := PresetConfig(PresetFloat, Deterministic)
	// ΔG_d shrinks as G approaches GMin (eq. 5).
	nearMax := cfg.depMagnitude(1.0)
	nearMin := cfg.depMagnitude(0.1)
	if nearMax <= nearMin {
		t.Errorf("depression magnitude should shrink near GMin: ΔG(1)=%v ΔG(0.1)=%v", nearMax, nearMin)
	}
	if math.Abs(nearMax-0.005) > 1e-12 {
		t.Errorf("ΔG_d at GMax = %v, want α_d", nearMax)
	}
}

func TestLowBitMagnitudeUsesQuantScale(t *testing.T) {
	// For ≤8-bit formats potentiation moves exactly one quantization step
	// (the paper's ΔG = 1/2^n) and depression half a step (the Table I
	// α_d:α_p ratio carried down), flat in g.
	for _, p := range []Preset{Preset2Bit, Preset4Bit, Preset8Bit} {
		cfg, _, _ := PresetConfig(p, Stochastic)
		step := cfg.Format.Step()
		for _, g := range []float64{cfg.Det.GMin, 0.25, cfg.GCeil()} {
			if got := cfg.potMagnitude(g); math.Abs(got-step) > 1e-12 {
				t.Errorf("%s pot amplitude at g=%v = %v, want step %v", p, g, got, step)
			}
			if got := cfg.depMagnitude(g); math.Abs(got-step) > 1e-12 {
				t.Errorf("%s dep amplitude at g=%v = %v, want step %v", p, g, got, step)
			}
		}
	}
	// 16-bit uses the Table I α values, not the quantization scale.
	cfg, _, _ := PresetConfig(Preset16Bit, Stochastic)
	if got := cfg.potMagnitude(0); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("16bit pot amplitude = %v, want 0.01", got)
	}
}

func TestGCeilRespectsFormatMax(t *testing.T) {
	cfg, _, _ := PresetConfig(Preset2Bit, Stochastic)
	// GMax = 1.0 but Q0.2 tops out at 0.75.
	if got := cfg.GCeil(); got != 0.75 {
		t.Errorf("GCeil = %v, want 0.75", got)
	}
	cfg, _, _ = PresetConfig(PresetFloat, Stochastic)
	if got := cfg.GCeil(); got != 1.0 {
		t.Errorf("float GCeil = %v, want 1.0", got)
	}
}

func TestConfigValidate(t *testing.T) {
	cfg, _, _ := PresetConfig(Preset16Bit, Stochastic)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("preset config invalid: %v", err)
	}
	bad := cfg
	bad.Stoch.GammaPot = 2
	if bad.Validate() == nil {
		t.Error("invalid stochastic params accepted")
	}
	// Deterministic configs don't need stochastic params.
	det := cfg
	det.Kind = Deterministic
	det.Stoch = StochParams{}
	if err := det.Validate(); err != nil {
		t.Errorf("deterministic config rejected: %v", err)
	}
}

// Property: P_pot and P_dep are valid probabilities for arbitrary Δt and
// arbitrary (sane) parameters.
func TestProbabilityRangeProperty(t *testing.T) {
	check := func(gamma, tau, dt float64) bool {
		s := StochParams{
			GammaPot: math.Mod(math.Abs(gamma), 1),
			TauPotMS: 1 + math.Mod(math.Abs(tau), 100),
			GammaDep: math.Mod(math.Abs(gamma), 1),
			TauDepMS: 1 + math.Mod(math.Abs(tau), 100),
		}
		pp := s.PPot(dt)
		pd := s.PDep(dt)
		return pp >= 0 && pp <= 1 && pd >= 0 && pd <= 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
