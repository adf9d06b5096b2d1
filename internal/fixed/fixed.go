// Package fixed implements the Qm.n fixed-point number formats and rounding
// options used by ParallelSpikeSim's low-precision learning module
// (paper §III-C).
//
// Synapse conductance is stored as an unsigned fixed-point code with m
// integer bits and n fractional bits (written Qm.n, e.g. Q1.7 is an 8-bit
// value in [0, 2) with step 1/128). Quantization is applied to the
// conductance after every LTP/LTD update, using one of three rounding
// options:
//
//   - Truncate: drop bits below the step (round toward zero),
//   - Nearest: round to the nearest representable value,
//   - Stochastic: round up with probability proportional to the residue
//     (paper eq. 8: P_up = (x − trunc(x)) · 2^n), so the expected quantized
//     value equals the unquantized one.
//
// The stochastic mode takes the uniform draw as an argument rather than an
// RNG, so callers can use counter-based draws and stay bit-reproducible
// under parallel execution.
package fixed

import (
	"fmt"
	"math"
	"strings"
)

// Rounding selects how off-grid values map onto the fixed-point grid.
type Rounding int

const (
	// Truncate drops sub-step bits (round toward zero). The paper calls
	// this "bit truncation".
	Truncate Rounding = iota
	// Nearest rounds to the nearest representable value, ties to the
	// even code (banker's rounding), so exactly-half-step updates are
	// not systematically biased in either direction.
	Nearest
	// Stochastic rounds up with probability equal to the normalized
	// residue (paper eq. 8) and down otherwise.
	Stochastic
)

// String returns the paper's name for the rounding option.
func (r Rounding) String() string {
	switch r {
	case Truncate:
		return "truncation"
	case Nearest:
		return "nearest"
	case Stochastic:
		return "stochastic"
	default:
		return fmt.Sprintf("Rounding(%d)", int(r))
	}
}

// ParseRounding converts a user-facing name into a Rounding.
func ParseRounding(s string) (Rounding, error) {
	switch s {
	case "truncation", "truncate", "trunc":
		return Truncate, nil
	case "nearest", "round-to-nearest", "rtn":
		return Nearest, nil
	case "stochastic", "sr":
		return Stochastic, nil
	default:
		return 0, fmt.Errorf("fixed: unknown rounding option %q", s)
	}
}

// Format describes an unsigned Qm.n fixed-point format. The zero value is
// not meaningful; use one of the predefined formats or NewFormat. A Format
// with Float == true represents the full-precision float32/float64 path and
// performs no quantization.
type Format struct {
	IntBits  int  // m: integer bits
	FracBits int  // n: fractional bits
	Float    bool // true for the unquantized floating-point path
}

// Predefined formats used in the paper's evaluation (Table II) plus the
// floating-point reference.
var (
	Q0p2    = Format{IntBits: 0, FracBits: 2}
	Q0p4    = Format{IntBits: 0, FracBits: 4}
	Q1p7    = Format{IntBits: 1, FracBits: 7}
	Q1p15   = Format{IntBits: 1, FracBits: 15}
	Float32 = Format{Float: true}
)

// NewFormat constructs a Qm.n format, validating the bit counts.
func NewFormat(intBits, fracBits int) (Format, error) {
	if intBits < 0 || fracBits < 0 {
		return Format{}, fmt.Errorf("fixed: negative bit count Q%d.%d", intBits, fracBits)
	}
	total := intBits + fracBits
	if total == 0 {
		return Format{}, fmt.Errorf("fixed: Q%d.%d has no bits", intBits, fracBits)
	}
	if total > 31 {
		return Format{}, fmt.Errorf("fixed: Q%d.%d exceeds 31 bits", intBits, fracBits)
	}
	return Format{IntBits: intBits, FracBits: fracBits}, nil
}

// ParseFormat parses the paper's "Qm.n" notation (case-insensitive, so
// "q1.7" and "Q1.7" are the same format), or "float32"/"float"/"fp32" for
// the unquantized path. It is the single entry point behind every format
// flag (pssim/psbench): beyond NewFormat's bit-count validation it
// requires the code width to divide 64, so every accepted fixed-point
// format packs exactly into the 64-bit SWAR words of the packed store.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "float32", "float", "fp32":
		return Float32, nil
	}
	var m, n int
	if _, err := fmt.Sscanf(strings.ToUpper(s), "Q%d.%d", &m, &n); err != nil {
		return Format{}, fmt.Errorf("fixed: cannot parse format %q (want Qm.n, e.g. q1.7, or float32): %v", s, err)
	}
	f, err := NewFormat(m, n)
	if err != nil {
		return Format{}, err
	}
	if !f.Packable() {
		return Format{}, fmt.Errorf("fixed: format %s is %d bits wide, which does not pack into 64-bit words (supported widths: 2, 4, 8, 16)", f, f.Bits())
	}
	return f, nil
}

// String renders the format in the paper's Qm.n notation.
func (f Format) String() string {
	if f.Float {
		return "float32"
	}
	return fmt.Sprintf("Q%d.%d", f.IntBits, f.FracBits)
}

// Bits returns the total bit width (0 for the float path).
func (f Format) Bits() int {
	if f.Float {
		return 0
	}
	return f.IntBits + f.FracBits
}

// Step returns the quantization step 1/2^n. For the float path it returns 0.
func (f Format) Step() float64 {
	if f.Float {
		return 0
	}
	return 1 / float64(uint64(1)<<uint(f.FracBits))
}

// Max returns the largest representable value, (2^(m+n) − 1)/2^n.
// For the float path it returns +Inf.
func (f Format) Max() float64 {
	if f.Float {
		return math.Inf(1)
	}
	codes := uint64(1) << uint(f.Bits())
	return float64(codes-1) * f.Step()
}

// Min returns the smallest representable value (always 0 here: conductance
// is non-negative). For the float path it returns -Inf.
func (f Format) Min() float64 {
	if f.Float {
		return math.Inf(-1)
	}
	return 0
}

// Levels returns the number of representable codes (0 for the float path).
func (f Format) Levels() int {
	if f.Float {
		return 0
	}
	return 1 << uint(f.Bits())
}

// Clamp saturates x into the representable range.
func (f Format) Clamp(x float64) float64 {
	if f.Float {
		return x
	}
	if x < 0 {
		return 0
	}
	if maxV := f.Max(); x > maxV {
		return maxV
	}
	return x
}

// ToCode converts a value to its fixed-point code by truncation, saturating
// at the range bounds. It panics on the float path.
func (f Format) ToCode(x float64) uint32 {
	if f.Float {
		panic("fixed: ToCode on float format")
	}
	x = f.Clamp(x)
	return uint32(math.Floor(x / f.Step()))
}

// FromCode converts a fixed-point code back to its value. Codes beyond the
// representable range saturate. It panics on the float path.
func (f Format) FromCode(c uint32) float64 {
	if f.Float {
		panic("fixed: FromCode on float format")
	}
	maxCode := uint32(f.Levels() - 1)
	if c > maxCode {
		c = maxCode
	}
	return float64(c) * f.Step()
}

// Quantize maps x onto the fixed-point grid using the given rounding option.
// The roll argument is a uniform draw in [0, 1) consumed only by Stochastic
// rounding; pass anything (e.g. 0) for the other modes. The result saturates
// into [Min, Max]. The float path returns x unchanged.
func (f Format) Quantize(x float64, mode Rounding, roll float64) float64 {
	if f.Float {
		return x
	}
	x = f.Clamp(x)
	step := f.Step()
	lower := math.Floor(x/step) * step
	residue := x - lower
	if residue == 0 {
		return lower
	}
	switch mode {
	case Truncate:
		return lower
	case Nearest:
		switch {
		case residue > step/2:
			return f.Clamp(lower + step)
		case residue < step/2:
			return lower
		default:
			// Tie: round to the even code (banker's rounding).
			if uint64(math.Round(lower/step))%2 == 0 {
				return lower
			}
			return f.Clamp(lower + step)
		}
	case Stochastic:
		// Paper eq. 8: P(round up) = (x − trunc(x)) · 2^n.
		if roll < residue/step {
			return f.Clamp(lower + step)
		}
		return lower
	default:
		panic(fmt.Sprintf("fixed: unknown rounding mode %d", int(mode)))
	}
}

// Weight is an on-grid quantized conductance value. The defined type marks
// the boundary of the fixed-point domain: raw +, -, *, / arithmetic on a
// Weight outside this package bypasses saturation and the paper's rounding
// options and is rejected by psslint's fixedrange analyzer. Mutate a Weight
// through AddSat/SubSat/QuantizeWeight; convert with float64(w) to leave
// the quantized domain (current accumulation, statistics, serialization),
// and convert back with Weight(x) only for values already known to be on
// the grid (e.g. checkpoint restore, which the simcheck sanitizer
// re-verifies).
type Weight float64

// QuantizeWeight is Quantize returning the result in the Weight domain.
func (f Format) QuantizeWeight(x float64, mode Rounding, roll float64) Weight {
	return Weight(f.Quantize(x, mode, roll))
}

// AddSat applies a potentiation step to an on-grid conductance: g + dg,
// saturated from above at ceil (the effective G_max, itself capped at the
// format's Max) and from below at the format range, then quantized with the
// given rounding option. This is the only sanctioned way to increase a
// Weight (paper eqs. 4/6 followed by the §III-C rounding step).
func (f Format) AddSat(g Weight, dg, ceil float64, mode Rounding, roll float64) Weight {
	x := float64(g) + dg
	if x > ceil {
		x = ceil
	}
	return f.QuantizeWeight(x, mode, roll)
}

// SubSat applies a depression step to an on-grid conductance: g − dg,
// saturated from below at floor (the effective G_min), then quantized with
// the given rounding option. This is the only sanctioned way to decrease a
// Weight (paper eqs. 5/7 followed by the §III-C rounding step).
func (f Format) SubSat(g Weight, dg, floor float64, mode Rounding, roll float64) Weight {
	x := float64(g) - dg
	if x < floor {
		x = floor
	}
	return f.QuantizeWeight(x, mode, roll)
}

// QuantizeCode is Quantize returning the raw code instead of the value.
func (f Format) QuantizeCode(x float64, mode Rounding, roll float64) uint32 {
	return f.ToCode(f.Quantize(x, mode, roll) + f.Step()/4)
}

// OnGrid reports whether x is exactly representable in the format (within
// one part in 2^40 to absorb float error).
func (f Format) OnGrid(x float64) bool {
	if f.Float {
		return true
	}
	if x < 0 || x > f.Max() {
		return false
	}
	q := x / f.Step()
	return math.Abs(q-math.Round(q)) < math.Ldexp(1, -40)*(1+math.Abs(q))
}
