package fixed

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"parallelspikesim/internal/rng"
)

func TestFormatProperties(t *testing.T) {
	cases := []struct {
		f      Format
		bits   int
		step   float64
		maxVal float64
		levels int
	}{
		{Q0p2, 2, 0.25, 0.75, 4},
		{Q0p4, 4, 0.0625, 0.9375, 16},
		{Q1p7, 8, 1.0 / 128, 255.0 / 128, 256},
		{Q1p15, 16, 1.0 / 32768, 65535.0 / 32768, 65536},
	}
	for _, c := range cases {
		if got := c.f.Bits(); got != c.bits {
			t.Errorf("%v Bits = %d, want %d", c.f, got, c.bits)
		}
		if got := c.f.Step(); got != c.step {
			t.Errorf("%v Step = %v, want %v", c.f, got, c.step)
		}
		if got := c.f.Max(); math.Abs(got-c.maxVal) > 1e-12 {
			t.Errorf("%v Max = %v, want %v", c.f, got, c.maxVal)
		}
		if got := c.f.Levels(); got != c.levels {
			t.Errorf("%v Levels = %d, want %d", c.f, got, c.levels)
		}
	}
}

func TestFloatFormat(t *testing.T) {
	f := Float32
	if f.Bits() != 0 || f.Step() != 0 || f.Levels() != 0 {
		t.Fatal("float format should report zero bits/step/levels")
	}
	if !math.IsInf(f.Max(), 1) || !math.IsInf(f.Min(), -1) {
		t.Fatal("float format range should be infinite")
	}
	for _, x := range []float64{-3.5, 0, 0.123456789, 1e9} {
		if got := f.Quantize(x, Truncate, 0); got != x {
			t.Errorf("float Quantize(%v) = %v, want unchanged", x, got)
		}
	}
}

func TestNewFormatValidation(t *testing.T) {
	if _, err := NewFormat(-1, 2); err == nil {
		t.Error("negative int bits accepted")
	}
	if _, err := NewFormat(0, 0); err == nil {
		t.Error("zero-width format accepted")
	}
	if _, err := NewFormat(16, 16); err == nil {
		t.Error("32-bit format accepted (limit is 31)")
	}
	if f, err := NewFormat(1, 7); err != nil || f != Q1p7 {
		t.Errorf("NewFormat(1,7) = %v, %v", f, err)
	}
}

func TestParseFormat(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Format
	}{
		{"Q0.2", Q0p2}, {"Q0.4", Q0p4}, {"Q1.7", Q1p7}, {"Q1.15", Q1p15},
		{"q0.2", Q0p2}, {"q1.7", Q1p7}, {"q1.15", Q1p15},
		{"float32", Float32}, {"float", Float32}, {"fp32", Float32},
		{"FLOAT32", Float32}, {"FP32", Float32},
	} {
		got, err := ParseFormat(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseFormat(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	// Widths that do not divide 64 cannot pack into SWAR words and are
	// rejected up front with a clear error.
	for _, bad := range []string{"Q1.2", "q2.3", "Q0.1", "Q3.9"} {
		_, err := ParseFormat(bad)
		if err == nil {
			t.Errorf("ParseFormat(%q) succeeded, want pack-width error", bad)
			continue
		}
		if !strings.Contains(err.Error(), "64-bit words") {
			t.Errorf("ParseFormat(%q) error %q does not explain the width rule", bad, err)
		}
	}
	for _, bad := range []string{"", "8bit", "Q.2", "Qx.y"} {
		if _, err := ParseFormat(bad); err == nil {
			t.Errorf("ParseFormat(%q) succeeded, want error", bad)
		}
	}
}

func TestFormatString(t *testing.T) {
	if Q1p7.String() != "Q1.7" {
		t.Errorf("Q1p7.String() = %q", Q1p7.String())
	}
	if Float32.String() != "float32" {
		t.Errorf("Float32.String() = %q", Float32.String())
	}
}

func TestParseRounding(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Rounding
	}{
		{"truncation", Truncate}, {"trunc", Truncate}, {"truncate", Truncate},
		{"nearest", Nearest}, {"rtn", Nearest},
		{"stochastic", Stochastic}, {"sr", Stochastic},
	} {
		got, err := ParseRounding(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseRounding(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseRounding("banker"); err == nil {
		t.Error("unknown rounding accepted")
	}
}

// TestParseRoundingRoundTrip checks that every rounding option's name
// parses back to the option: callers holding a typed Rounding pass it to
// config.Model as r.String(). The walk stops at the first value String does
// not name.
func TestParseRoundingRoundTrip(t *testing.T) {
	n := 0
	for r := Rounding(0); !strings.HasPrefix(r.String(), "Rounding("); r++ {
		got, err := ParseRounding(r.String())
		if err != nil || got != r {
			t.Errorf("ParseRounding(%q) = %v, %v; want %v", r.String(), got, err, r)
		}
		n++
	}
	if n != 3 {
		t.Errorf("walked %d rounding options, want 3", n)
	}
}

func TestRoundingString(t *testing.T) {
	if Truncate.String() != "truncation" || Nearest.String() != "nearest" || Stochastic.String() != "stochastic" {
		t.Error("Rounding.String mismatch")
	}
}

func TestClampSaturates(t *testing.T) {
	f := Q1p7
	if got := f.Clamp(-0.5); got != 0 {
		t.Errorf("Clamp(-0.5) = %v", got)
	}
	if got := f.Clamp(5); got != f.Max() {
		t.Errorf("Clamp(5) = %v, want %v", got, f.Max())
	}
	if got := f.Clamp(1.0); got != 1.0 {
		t.Errorf("Clamp(1.0) = %v", got)
	}
}

func TestQuantizeTruncate(t *testing.T) {
	f := Q0p2 // step 0.25
	cases := []struct{ in, want float64 }{
		{0, 0}, {0.1, 0}, {0.24, 0}, {0.25, 0.25}, {0.26, 0.25},
		{0.49, 0.25}, {0.5, 0.5}, {0.74, 0.5}, {0.75, 0.75}, {0.9, 0.75},
		{2.0, 0.75}, {-1, 0},
	}
	for _, c := range cases {
		if got := f.Quantize(c.in, Truncate, 0); got != c.want {
			t.Errorf("Truncate(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestQuantizeNearest(t *testing.T) {
	f := Q0p2
	cases := []struct{ in, want float64 }{
		{0.1, 0}, {0.124, 0}, {0.13, 0.25},
		{0.3, 0.25}, {0.38, 0.5}, {0.62, 0.5}, {0.63, 0.75},
		{0.74, 0.75}, {0.75, 0.75},
	}
	for _, c := range cases {
		if got := f.Quantize(c.in, Nearest, 0); got != c.want {
			t.Errorf("Nearest(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestQuantizeNearestTiesToEven(t *testing.T) {
	f := Q0p2 // step 0.25; codes 0,1,2,3
	// 0.125 ties between code 0 (even) and 1 → even → 0.
	if got := f.Quantize(0.125, Nearest, 0); got != 0 {
		t.Errorf("tie at 0.125 = %v, want 0 (even code)", got)
	}
	// 0.375 ties between code 1 and 2 (even) → 0.5.
	if got := f.Quantize(0.375, Nearest, 0); got != 0.5 {
		t.Errorf("tie at 0.375 = %v, want 0.5 (even code)", got)
	}
	// 0.625 ties between code 2 (even) and 3 → 0.5.
	if got := f.Quantize(0.625, Nearest, 0); got != 0.5 {
		t.Errorf("tie at 0.625 = %v, want 0.5 (even code)", got)
	}
}

func TestQuantizeNearestSaturatesAtTop(t *testing.T) {
	f := Q0p2
	// 0.75 is the max; rounding 0.74 up must not exceed it.
	if got := f.Quantize(0.74, Nearest, 0); got > f.Max() {
		t.Errorf("Nearest(0.74) = %v exceeds max %v", got, f.Max())
	}
}

func TestQuantizeStochasticEdges(t *testing.T) {
	f := Q0p4 // step 1/16
	// roll = 0 always rounds up for any positive residue.
	if got := f.Quantize(0.51, Stochastic, 0); got <= 0.5 {
		t.Errorf("Stochastic with roll 0 should round up, got %v", got)
	}
	// roll just below 1 always rounds down.
	if got := f.Quantize(0.51, Stochastic, 0.999999); got != 0.5 {
		t.Errorf("Stochastic with roll~1 should round down, got %v", got)
	}
	// On-grid values are unchanged regardless of roll.
	if got := f.Quantize(0.5, Stochastic, 0); got != 0.5 {
		t.Errorf("Stochastic on-grid value moved: %v", got)
	}
}

func TestQuantizeStochasticUnbiased(t *testing.T) {
	f := Q0p2 // step 0.25
	r := rng.NewStream(33)
	const n = 200000
	x := 0.30 // residue 0.05 over 0.25 → P(up) = 0.2 → E[q] = 0.25+0.2*0.25 = 0.30
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += f.Quantize(x, Stochastic, r.Float64())
	}
	mean := sum / n
	if math.Abs(mean-x) > 0.002 {
		t.Errorf("stochastic rounding biased: mean %v, want %v", mean, x)
	}
}

func TestQuantizeStochasticProbability(t *testing.T) {
	f := Q1p7             // step 1/128
	x := f.Step() * 10.75 // residue fraction 0.75
	r := rng.NewStream(44)
	const n = 100000
	up := 0
	for i := 0; i < n; i++ {
		if f.Quantize(x, Stochastic, r.Float64()) > f.Step()*10.5 {
			up++
		}
	}
	got := float64(up) / n
	if math.Abs(got-0.75) > 0.01 {
		t.Errorf("P(round up) = %v, want 0.75 (eq. 8)", got)
	}
}

func TestToFromCodeRoundTrip(t *testing.T) {
	f := Q1p7
	for c := uint32(0); c < uint32(f.Levels()); c++ {
		v := f.FromCode(c)
		if got := f.ToCode(v); got != c {
			t.Fatalf("code %d -> %v -> %d", c, v, got)
		}
	}
}

func TestFromCodeSaturates(t *testing.T) {
	f := Q0p2
	if got := f.FromCode(1000); got != f.Max() {
		t.Errorf("FromCode(1000) = %v, want %v", got, f.Max())
	}
}

func TestToCodePanicsOnFloat(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ToCode on float format did not panic")
		}
	}()
	Float32.ToCode(0.5)
}

func TestFromCodePanicsOnFloat(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromCode on float format did not panic")
		}
	}()
	Float32.FromCode(1)
}

func TestOnGrid(t *testing.T) {
	f := Q0p2
	for _, v := range []float64{0, 0.25, 0.5, 0.75} {
		if !f.OnGrid(v) {
			t.Errorf("%v should be on grid", v)
		}
	}
	for _, v := range []float64{0.1, 0.3, 0.76, -0.25, 1.0} {
		if f.OnGrid(v) {
			t.Errorf("%v should be off grid", v)
		}
	}
	if !Float32.OnGrid(0.123) {
		t.Error("float path should report everything on grid")
	}
}

// Property: for every fixed format and mode, the quantized value is on the
// grid, within one step of the clamped input, and inside [Min, Max].
func TestQuantizePropertyAllModes(t *testing.T) {
	formats := []Format{Q0p2, Q0p4, Q1p7, Q1p15}
	modes := []Rounding{Truncate, Nearest, Stochastic}
	check := func(x, roll float64) bool {
		x = math.Mod(math.Abs(x), 4)
		roll = math.Mod(math.Abs(roll), 1)
		for _, f := range formats {
			clamped := f.Clamp(x)
			for _, m := range modes {
				q := f.Quantize(x, m, roll)
				if !f.OnGrid(q) {
					return false
				}
				if math.Abs(q-clamped) > f.Step()+1e-12 {
					return false
				}
				if q < f.Min() || q > f.Max() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: truncation never exceeds the input; nearest is within half a
// step of the clamped input (except at the saturation boundary).
func TestRoundingBoundsProperty(t *testing.T) {
	f := Q1p7
	check := func(x float64) bool {
		x = math.Mod(math.Abs(x), f.Max())
		tr := f.Quantize(x, Truncate, 0)
		if tr > x+1e-12 {
			return false
		}
		nr := f.Quantize(x, Nearest, 0)
		return math.Abs(nr-x) <= f.Step()/2+1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantization is idempotent — requantizing an on-grid value in
// any mode returns it unchanged.
func TestQuantizeIdempotentProperty(t *testing.T) {
	f := Q0p4
	check := func(x, roll float64) bool {
		x = math.Mod(math.Abs(x), 2)
		roll = math.Mod(math.Abs(roll), 1)
		q := f.Quantize(x, Nearest, 0)
		for _, m := range []Rounding{Truncate, Nearest, Stochastic} {
			if f.Quantize(q, m, roll) != q {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkQuantizeTruncate(b *testing.B) {
	f := Q1p7
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = f.Quantize(0.3337, Truncate, 0)
	}
	_ = sink
}

func BenchmarkQuantizeStochastic(b *testing.B) {
	f := Q1p7
	r := rng.NewStream(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = f.Quantize(0.3337, Stochastic, r.Float64())
	}
	_ = sink
}
