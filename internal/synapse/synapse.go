// Package synapse implements ParallelSpikeSim's synapse models: the
// conductance matrix connecting input spike trains to the excitatory layer,
// the deterministic STDP rule used as the paper's baseline (eqs. 4–5, after
// Querlioz), the stochastic STDP rule that is the paper's key contribution
// (eqs. 6–7, after Srinivasan), and the low-precision update pipeline that
// quantizes every conductance write with a selectable rounding option
// (paper §III-C).
//
// # Event model
//
// Learning is driven by two spike events, mirroring Fig 1(b):
//
//   - post-neuron spike at time t: for every input synapse the signed
//     time difference Δt = t − t_pre,last ≥ 0 measures causality. The
//     deterministic baseline potentiates synapses whose pre fired within
//     WindowMS and depresses all others. The stochastic rule potentiates
//     with probability P_pot = γ_pot·e^(−Δt/τ_pot)   (eq. 6).
//   - pre-spike arrival at time t after the post-neuron fired at
//     t_post < t: Δt = t_post − t < 0 is anti-causal. The stochastic rule
//     depresses with probability P_dep = γ_dep·e^(Δt/τ_dep)  (eq. 7).
//     The deterministic baseline handles depression in the post-spike
//     event instead, so its pre-spike hook is a no-op.
//
// # Update magnitude
//
// Conductance moves by the soft-bounded exponential magnitudes of eq. 4/5:
//
//	ΔG_p = α_p·e^(−β_p(G−Gmin)/(Gmax−Gmin))
//	ΔG_d = α_d·e^(−β_d(Gmax−G)/(Gmax−Gmin))
//
// For ≤8-bit learning the paper sets the update amplitude to the
// quantization scale 1/2^n (n = bit width) instead of α (Table I leaves
// α, β blank for those rows); we keep the soft-bound exponent with the
// 16-bit β = 3 so updates land off-grid and the rounding option stays
// meaningful at every precision — see DESIGN.md §2 for the rationale.
//
// # Reproducibility
//
// All stochastic decisions (STDP rolls and stochastic rounding) use
// counter-based draws keyed by (seed, event tag, step, pre, post), so the
// parallel engine produces bit-identical conductances to sequential
// execution.
package synapse

import (
	"fmt"
	"math"

	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/fixed"
)

// Never is the last-spike-time sentinel for a unit that has not spiked yet.
var Never = math.Inf(-1)

// RuleKind selects between the paper's two STDP learning rules.
type RuleKind int

const (
	// Deterministic is the paper's baseline rule (eqs. 4–5).
	Deterministic RuleKind = iota
	// Stochastic is the paper's contribution (eqs. 6–7).
	Stochastic
)

// String names the rule as the paper does.
func (k RuleKind) String() string {
	switch k {
	case Deterministic:
		return "deterministic"
	case Stochastic:
		return "stochastic"
	default:
		return fmt.Sprintf("RuleKind(%d)", int(k))
	}
}

// ParseRule converts a user-facing rule name.
func ParseRule(s string) (RuleKind, error) {
	switch s {
	case "deterministic", "det", "baseline":
		return Deterministic, nil
	case "stochastic", "stoch":
		return Stochastic, nil
	default:
		return 0, fmt.Errorf("synapse: unknown rule %q", s)
	}
}

// DetParams are the deterministic conductance-modulation parameters of
// eqs. (4)–(5) plus the LTP classification window.
type DetParams struct {
	AlphaP float64 // α_p: peak potentiation step
	BetaP  float64 // β_p: potentiation soft-bound exponent
	AlphaD float64 // α_d: peak depression step
	BetaD  float64 // β_d: depression soft-bound exponent
	GMax   float64 // upper conductance bound
	GMin   float64 // lower conductance bound

	// WindowMS classifies a synapse as causal on a post spike: pre spikes
	// within this window potentiate, older ones depress (Querlioz-style
	// post-event rule, as used by the baseline simulators the paper cites).
	WindowMS float64
}

// Validate checks parameter consistency.
func (p DetParams) Validate() error {
	switch {
	case p.GMax <= p.GMin:
		return fmt.Errorf("synapse: GMax (%v) must exceed GMin (%v)", p.GMax, p.GMin)
	case p.AlphaP < 0 || p.AlphaD < 0:
		return fmt.Errorf("synapse: negative α (αp=%v αd=%v)", p.AlphaP, p.AlphaD)
	case p.WindowMS <= 0:
		return fmt.Errorf("synapse: non-positive STDP window %v", p.WindowMS)
	default:
		return nil
	}
}

// StochParams are the stochastic STDP probability parameters of
// eqs. (6)–(7).
type StochParams struct {
	GammaPot float64 // γ_pot: peak potentiation probability
	TauPotMS float64 // τ_pot: potentiation time constant (ms)
	GammaDep float64 // γ_dep: peak depression probability
	TauDepMS float64 // τ_dep: depression time constant (ms)
}

// Validate checks parameter consistency.
func (p StochParams) Validate() error {
	switch {
	case p.GammaPot < 0 || p.GammaPot > 1 || p.GammaDep < 0 || p.GammaDep > 1:
		return fmt.Errorf("synapse: γ outside [0,1] (γpot=%v γdep=%v)", p.GammaPot, p.GammaDep)
	case p.TauPotMS <= 0 || p.TauDepMS <= 0:
		return fmt.Errorf("synapse: non-positive τ (τpot=%v τdep=%v)", p.TauPotMS, p.TauDepMS)
	default:
		return nil
	}
}

// PPot returns the potentiation probability for a causal spike pair with
// signed time difference dt = t_post − t_pre ≥ 0 (eq. 6). Anti-causal pairs
// (dt < 0) return 0. The value saturates at 1.
func (p StochParams) PPot(dt float64) float64 {
	if dt < 0 || math.IsInf(dt, 1) {
		return 0
	}
	v := p.GammaPot * math.Exp(-dt/p.TauPotMS)
	if v > 1 {
		return 1
	}
	return v
}

// PDep returns the depression probability for an anti-causal spike pair
// with signed time difference dt = t_post − t_pre ≤ 0 (eq. 7). Causal pairs
// (dt > 0) return 0. The value saturates at 1. This is the curve of
// Fig 1(c); the learning module evaluates the same exponential with its
// time origin shifted to the LTP window edge (PDepEvent).
func (p StochParams) PDep(dt float64) float64 {
	if dt > 0 || math.IsInf(dt, -1) {
		return 0
	}
	v := p.GammaDep * math.Exp(dt/p.TauDepMS)
	if v > 1 {
		return 1
	}
	return v
}

// PDepEvent returns the depression probability used by the post-spike
// learning event for a synapse whose pre last fired `age` ms ago, given the
// LTP window W: eq. 7's exponential with its origin at the window edge,
// ceilinged by γ_dep,
//
//	P_dep = γ_dep·min(1, e^((age−W)/τ_dep))
//
// Inside the window the probability falls off as γ_dep·e^(−(W−age)/τ_dep)
// (recent pres almost never depress); beyond the window it saturates at
// γ_dep — the stochastic synapse's switching ceiling. That ceiling is what
// gives stochastic STDP its memory retention: a deterministic baseline
// depresses every stale synapse on every post spike, while the stochastic
// synapse flips with probability γ_dep at most, so "loosely correlated
// spiking events" erode learned conductance γ_dep times slower (§IV-D). A
// pre that never fired (age = +Inf) carries no causal evidence and
// depresses at the ceiling.
func (p StochParams) PDepEvent(age, windowMS float64) float64 {
	if math.IsInf(age, 1) {
		return p.GammaDep
	}
	e := math.Exp((age - windowMS) / p.TauDepMS)
	if e > 1 {
		e = 1
	}
	return p.GammaDep * e
}

// Config bundles everything the plasticity pipeline needs: rule, parameters,
// precision format, rounding option and RNG seed.
type Config struct {
	Kind     RuleKind
	Det      DetParams
	Stoch    StochParams
	Format   fixed.Format
	Rounding fixed.Rounding
	Seed     uint64
}

// Validate checks the full configuration.
func (c Config) Validate() error {
	if err := c.Det.Validate(); err != nil {
		return err
	}
	if c.Kind == Stochastic {
		if err := c.Stoch.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// GCeil returns the effective upper conductance bound: the model's GMax
// capped at the largest representable value of the precision format.
func (c Config) GCeil() float64 {
	if c.Format.Float {
		return c.Det.GMax
	}
	return math.Min(c.Det.GMax, c.Format.Max())
}

// potMagnitude returns ΔG_p at conductance g. For float and 16-bit
// learning this is eq. 4's soft-bounded exponential. For ≤8-bit learning
// the paper sets ΔG to the quantization scale 1/2^n (§III-C; Table I leaves
// α, β blank for those rows): potentiation moves exactly one quantization
// step, flat.
func (c Config) potMagnitude(g float64) float64 {
	if bits := c.Format.Bits(); bits > 0 && bits <= 8 {
		return c.Format.Step()
	}
	r := c.Det.GMax - c.Det.GMin
	return c.Det.AlphaP * math.Exp(-c.Det.BetaP*(g-c.Det.GMin)/r)
}

// depMagnitude returns ΔG_d at conductance g: eq. 5's soft-bounded
// exponential for float/16-bit learning. For ≤8-bit learning depression,
// like potentiation, moves exactly one quantization step (the paper's
// ΔG = 1/2^n): every LTP/LTD event at coarse precision is a full-step
// switch. That full-step slamming is exactly why the deterministic rule
// loses its memory at low precision while the stochastic rule — which
// fires those switches only with the eq. 6/7 probabilities — still
// integrates information across events (§IV-D).
func (c Config) depMagnitude(g float64) float64 {
	if bits := c.Format.Bits(); bits > 0 && bits <= 8 {
		return c.Format.Step()
	}
	r := c.Det.GMax - c.Det.GMin
	return c.Det.AlphaD * math.Exp(-c.Det.BetaD*(c.Det.GMax-g)/r)
}

// Table I presets. PresetNames lists them in paper order.

// Preset identifies a row of the paper's Table I.
type Preset string

const (
	Preset2Bit     Preset = "2bit"
	Preset4Bit     Preset = "4bit"
	Preset8Bit     Preset = "8bit"
	Preset16Bit    Preset = "16bit"
	PresetFloat    Preset = "float32"
	PresetHighFreq Preset = "highfreq"
)

// PresetNames lists the available presets in paper order.
func PresetNames() []Preset {
	return []Preset{Preset2Bit, Preset4Bit, Preset8Bit, Preset16Bit, PresetFloat, PresetHighFreq}
}

// PresetConfig returns the Table I parameter row for the given preset and
// rule, along with its operating point: the baseline 1–22 Hz / 500 ms
// control for the five precision rows, the 5–78 Hz / 100 ms fast-learning
// control (§IV-C) for highfreq. The float32 preset reuses the 16-bit α/β
// row (the paper reports float32 results with the same rule parameters).
// Rounding defaults to Stochastic for fixed formats; callers override as
// needed.
func PresetConfig(p Preset, kind RuleKind) (Config, encode.Control, error) {
	// The deterministic magnitudes of the 16-bit row double as the float
	// path and (via the 1/2^n substitution) as the ≤8-bit shape. The LTP
	// window is matched to the 1–22 Hz input band: active pixels (ISI
	// ≈ 45 ms) land inside it, background pixels (ISI ≈ 1 s) outside.
	det := DetParams{
		AlphaP: 0.01, BetaP: 3,
		AlphaD: 0.005, BetaD: 3,
		GMax: 1.0, GMin: 0,
		WindowMS: 50,
	}
	ctl := encode.BaselineControl()
	cfg := Config{Kind: kind, Det: det, Rounding: fixed.Stochastic}

	switch p {
	case Preset2Bit:
		cfg.Format = fixed.Q0p2
		cfg.Stoch = StochParams{GammaPot: 0.2, TauPotMS: 20, GammaDep: 0.2, TauDepMS: 10}
	case Preset4Bit:
		cfg.Format = fixed.Q0p4
		cfg.Stoch = StochParams{GammaPot: 0.3, TauPotMS: 30, GammaDep: 0.3, TauDepMS: 10}
	case Preset8Bit:
		cfg.Format = fixed.Q1p7
		cfg.Stoch = StochParams{GammaPot: 0.5, TauPotMS: 30, GammaDep: 0.5, TauDepMS: 10}
	case Preset16Bit:
		cfg.Format = fixed.Q1p15
		cfg.Stoch = StochParams{GammaPot: 0.9, TauPotMS: 30, GammaDep: 0.9, TauDepMS: 10}
	case PresetFloat:
		cfg.Format = fixed.Float32
		cfg.Rounding = fixed.Nearest // unused on the float path
		cfg.Stoch = StochParams{GammaPot: 0.9, TauPotMS: 30, GammaDep: 0.9, TauDepMS: 10}
	case PresetHighFreq:
		cfg.Format = fixed.Float32
		cfg.Rounding = fixed.Nearest
		// Short-term stochastic behaviour: longer τ_pot, shorter τ_dep,
		// and an LTP window matched to the 5–78 Hz band (ISI ≈ 13 ms).
		cfg.Stoch = StochParams{GammaPot: 0.3, TauPotMS: 80, GammaDep: 0.2, TauDepMS: 5}
		cfg.Det.WindowMS = 15
		ctl = encode.HighFrequencyControl()
	default:
		return Config{}, encode.Control{}, fmt.Errorf("synapse: unknown preset %q", p)
	}
	return cfg, ctl, nil
}
