// Packed code storage and SWAR word kernels.
//
// A Qm.n conductance is an integer code of Bits() bits; when that width
// divides 64, codes pack lanes-per-word into uint64s (32×Q0.2, 16×Q0.4,
// 8×Q1.7, 4×Q1.15) and the hot loops — eq. 3 current integration and the
// flat-step LTP/LTD saturating updates of §III-C — run word-parallel
// ("SWAR": SIMD within a register). Cross-lane carries are fenced with the
// classic MSB-masking technique: the lane MSBs are masked out of both
// operands so the low-bit add/sub can only carry *into* the MSB position,
// never across a lane boundary, and the true MSBs are recombined by XOR.
//
// All packed-word manipulation lives in this package. The Word defined type
// marks the boundary: psslint's fixedrange analyzer rejects direct indexing
// of []Word outside internal/fixed, so layout decisions (lane order,
// padding, masking) cannot leak into callers. synapse.Matrix slices rows
// out of its word array and hands them to the kernels here.
package fixed

import (
	"fmt"
	"math"
)

// Word is one 64-bit group of packed fixed-point codes, lane 0 in the least
// significant bits. The defined type fences the packed domain the same way
// Weight fences the quantized-value domain: outside internal/fixed, words
// may be sliced, copied and passed around, but never indexed or bit-twiddled
// (psslint's fixedrange analyzer enforces this), so every lane access goes
// through a Packing kernel that respects lane boundaries and saturation.
type Word uint64

// Packable reports whether the format's codes can pack exactly into 64-bit
// words: a fixed-point format at least 2 bits wide whose width divides 64.
// (1-bit formats divide 64 too, but a 1-bit lane has no MSB/low-bit split
// for the carry-fence kernels; they take the unpacked fallback path.)
func (f Format) Packable() bool {
	b := f.Bits()
	return !f.Float && b >= 2 && 64%b == 0
}

// Packing holds the precomputed lane geometry and SWAR constants of a
// packable format, plus the dequantization LUT for narrow lanes. Obtain one
// with Format.Packing; the zero value is not meaningful.
type Packing struct {
	format Format
	width  uint // lane width in bits
	lanes  int  // lanes per word: 64 / width

	laneMask Word // (1<<width)-1: one full lane at position 0
	lowBits  Word // bit 0 of every lane        (e.g. 0x0101… for width 8)
	msbBits  Word // MSB of every lane          (e.g. 0x8080… for width 8)

	step    float64   // quantization step 1/2^n
	invStep float64   // 2^n: exact inverse, multiplication instead of division
	lut     []float64 // lut[c] = float64(c)·step; nil for lanes wider than 8 bits
}

// Packing derives the SWAR constants for a packable format. It fails for
// float formats and widths that do not divide 64 (use Packable to probe).
func (f Format) Packing() (*Packing, error) {
	if !f.Packable() {
		return nil, fmt.Errorf("fixed: format %s is not packable into 64-bit words", f)
	}
	width := uint(f.Bits())
	p := &Packing{
		format:   f,
		width:    width,
		lanes:    64 / int(width),
		laneMask: Word(1)<<width - 1,
		step:     f.Step(),
		invStep:  math.Ldexp(1, f.FracBits),
	}
	for i := 0; i < p.lanes; i++ {
		p.lowBits |= Word(1) << (uint(i) * width)
	}
	p.msbBits = p.lowBits << (width - 1)
	if width <= 8 {
		// 2 KB worst case (256 entries) — stays L1-resident. Wider lanes
		// dequantize arithmetically; a 512 KB 16-bit LUT would thrash cache.
		p.lut = make([]float64, 1<<width)
		for c := range p.lut {
			p.lut[c] = float64(c) * p.step
		}
	}
	return p, nil
}

// Format returns the format the packing was derived from.
func (p *Packing) Format() Format { return p.format }

// Lanes returns the number of codes per 64-bit word.
func (p *Packing) Lanes() int { return p.lanes }

// Width returns the lane width in bits.
func (p *Packing) Width() int { return int(p.width) }

// WordsFor returns the number of words needed to hold n lanes.
func (p *Packing) WordsFor(n int) int {
	return (n + p.lanes - 1) / p.lanes
}

// Value dequantizes a code: exactly Format.FromCode for in-range codes,
// via the LUT when one exists. float64(c)·step is exact for every code
// (c < 2^width ≤ 2^16 and step is a power of two), which is what makes the
// packed store bit-identical to the float64-backed one it replaced.
func (p *Packing) Value(c uint32) float64 {
	if p.lut != nil {
		return p.lut[c]
	}
	return float64(c) * p.step
}

// CodeOf converts an on-grid Weight back to its lane code. The inverse
// scaling by 2^n is exact for on-grid values, so CodeOf(Value(c)) == c;
// off-grid inputs truncate onto the grid (callers are expected to quantize
// first — simcheck asserts this at the Matrix write path).
func (p *Packing) CodeOf(w Weight) uint32 {
	x := float64(w) * p.invStep
	if x <= 0 {
		return 0
	}
	if max := uint32(p.laneMask); x >= float64(max) {
		return max
	}
	return uint32(x)
}

// Get extracts lane i from a packed slice.
func (p *Packing) Get(words []Word, i int) uint32 {
	w := words[i/p.lanes] >> (uint(i%p.lanes) * p.width)
	return uint32(w & p.laneMask)
}

// Set stores code c (masked to the lane width) into lane i.
func (p *Packing) Set(words []Word, i int, c uint32) {
	sh := uint(i%p.lanes) * p.width
	wi := i / p.lanes
	words[wi] = words[wi]&^(p.laneMask<<sh) | (Word(c)&p.laneMask)<<sh
}

// Pack packs codes (masked to the lane width) into a fresh word slice.
func (p *Packing) Pack(codes []uint32) []Word {
	words := make([]Word, p.WordsFor(len(codes)))
	for i, c := range codes {
		words[i/p.lanes] |= (Word(c) & p.laneMask) << (uint(i%p.lanes) * p.width)
	}
	return words
}

// Unpack appends the first n lane codes to dst and returns it.
func (p *Packing) Unpack(words []Word, n int, dst []uint32) []uint32 {
	for i := 0; i < n; {
		w := words[i/p.lanes]
		end := i + p.lanes
		if end > n {
			end = n
		}
		for ; i < end; i++ {
			dst = append(dst, uint32(w&p.laneMask))
			w >>= p.width
		}
	}
	return dst
}

// broadcast replicates a code into every lane.
func (p *Packing) broadcast(c uint32) Word {
	return (Word(c) & p.laneMask) * p.lowBits
}

// laneAdd adds a to x per lane, modulo 2^width, with carries fenced at lane
// boundaries: the MSBs are masked out so the low-bit sum can only carry into
// the MSB position, then the true MSB parity is recombined by XOR.
func (p *Packing) laneAdd(x, a Word) Word {
	h := p.msbBits
	return (x&^h + a&^h) ^ (x^a)&h
}

// laneSub subtracts a from x per lane, modulo 2^width. Seeding each lane's
// MSB of the minuend fences borrows: the low-bit difference can consume the
// seeded MSB but never borrow across a lane; the true MSB is recomputed
// from the operands' MSBs and the borrow indicator.
func (p *Packing) laneSub(x, a Word) Word {
	h := p.msbBits
	d := (x | h) - a&^h
	return d&^h | (x^a^^d)&h
}

// lanesGE returns full-lane masks (all bits of the lane set) where
// lane(x) ≥ lane(y), unsigned. Exact for all inputs: the low bits compare
// via a borrow-fenced subtraction and the MSBs resolve the three MSB cases
// directly.
func (p *Packing) lanesGE(x, y Word) Word {
	h := p.msbBits
	// d's MSB per lane = 1 iff low(x) ≥ low(y) (seeded MSB survived).
	d := (x&^h | h) - y&^h
	ge := (x & ^y & h) | (^(x ^ y) & d & h)
	return p.expandMSB(ge)
}

// expandMSB spreads lane-MSB bits into full-lane masks. The selected MSBs
// shift down to the lane's low bit and multiply by the lane mask; lanes
// cannot overlap, so the products OR together carry-free.
func (p *Packing) expandMSB(m Word) Word {
	return (m >> (p.width - 1)) * p.laneMask
}

// addSatOneWord applies a saturating +1 to every lane selected by sel (a
// full-lane mask, as produced by SetLane), clamping at the ceil lane value
// ceilB (broadcast form). Lanes already at or above ceil clamp to exactly
// ceil — the same semantics as Format.AddSat with a flat one-step update.
func (p *Packing) addSatOneWord(w, sel, ceilB Word) Word {
	capped := p.lanesGE(w, ceilB)
	out := p.laneAdd(w, sel&^capped&p.lowBits)
	clamp := sel & capped
	return out&^clamp | ceilB&clamp
}

// subSatOneWord applies a saturating −1 to every lane selected by sel,
// clamping at the floor lane value floorB (broadcast form). Lanes at or
// below floor clamp to exactly floor — Format.SubSat with a flat one-step
// update.
func (p *Packing) subSatOneWord(w, sel, floorB Word) Word {
	floored := p.lanesGE(floorB, w)
	out := p.laneSub(w, sel&^floored&p.lowBits)
	clamp := sel & floored
	return out&^clamp | floorB&clamp
}

// NewSelect allocates a lane-select mask covering n lanes, all clear.
// Select masks use full-lane bits (SetLane) so they compose directly with
// the word kernels.
func (p *Packing) NewSelect(n int) []Word {
	return make([]Word, p.WordsFor(n))
}

// SetLane marks lane i in a select mask.
func (p *Packing) SetLane(sel []Word, i int) {
	sel[i/p.lanes] |= p.laneMask << (uint(i%p.lanes) * p.width)
}

// AddSatMasked applies a saturating one-step increment to every lane
// selected in sel, word-parallel, clamping at code ceil. This is the
// word-kernel form of Format.AddSat for the paper's ≤8-bit learning modes,
// where the update amplitude is pinned to the quantization step (§III-C):
// 8–32 synapses potentiate per operation instead of one.
//
//psslint:noalloc
func (p *Packing) AddSatMasked(words, sel []Word, ceil uint32) {
	ceilB := p.broadcast(ceil)
	for wi, m := range sel {
		if m != 0 {
			words[wi] = p.addSatOneWord(words[wi], m, ceilB)
		}
	}
}

// SubSatMasked is AddSatMasked's depression twin: a saturating one-step
// decrement on every selected lane, clamping at code floor.
//
//psslint:noalloc
func (p *Packing) SubSatMasked(words, sel []Word, floor uint32) {
	floorB := p.broadcast(floor)
	for wi, m := range sel {
		if m != 0 {
			words[wi] = p.subSatOneWord(words[wi], m, floorB)
		}
	}
}

// IncSat applies a saturating one-step increment to a single lane — the
// per-synapse form the dense plasticity path uses when only one lane of a
// row moves.
//
//psslint:noalloc
func (p *Packing) IncSat(words []Word, i int, ceil uint32) uint32 {
	c := p.Get(words, i)
	if c >= ceil {
		c = ceil
	} else {
		c++
	}
	p.Set(words, i, c)
	return c
}

// DecSat applies a saturating one-step decrement to a single lane.
//
//psslint:noalloc
func (p *Packing) DecSat(words []Word, i int, floor uint32) uint32 {
	c := p.Get(words, i)
	if c <= floor {
		c = floor
	} else {
		c--
	}
	p.Set(words, i, c)
	return c
}

// AccumulateRange adds Value(code_i)·amp into cur[i] for every lane i in
// [lo, hi) — eq. 3 for a single row. Each 64-bit load delivers up to 32
// conductances and the LUT dequantizes without touching the wide matrix
// again. Every lane gets one rounded product and one rounded add; the
// explicit float64 conversion forbids fusing the two into an FMA, so the
// sums are the same on every architecture. AccumulateRows uses this for the
// lanes outside its register blocks.
//
//psslint:noalloc
func (p *Packing) AccumulateRange(words []Word, amp float64, cur []float64, lo, hi int) {
	if lut := p.lut; lut != nil {
		for i := lo; i < hi; {
			w := words[i/p.lanes] >> (uint(i%p.lanes) * p.width)
			end := (i/p.lanes + 1) * p.lanes
			if end > hi {
				end = hi
			}
			for ; i < end; i++ {
				cur[i] += float64(lut[w&p.laneMask] * amp)
				w >>= p.width
			}
		}
		return
	}
	for i := lo; i < hi; {
		w := words[i/p.lanes] >> (uint(i%p.lanes) * p.width)
		end := (i/p.lanes + 1) * p.lanes
		if end > hi {
			end = hi
		}
		for ; i < end; i++ {
			cur[i] += float64(float64(w&p.laneMask) * p.step * amp)
			w >>= p.width
		}
	}
}

// blockLanes is the register block of AccumulateRows: the number of lane
// accumulators held in locals while the kernel walks a step's spiking
// rows. Eight float64 accumulators take half of amd64's sixteen vector
// registers, leaving the rest for the table values in flight. Lane counts
// per word (32, 16, 8) are multiples of it and a 16-bit block spans
// exactly two words.
const blockLanes = 8

// AccumulateRows is eq. 3 for one step over the lanes [lo, hi): it first
// decays each current, cur[i] *= decay, or clears it when decay is 0, and
// then adds Value(code)·amp of every row listed in rows into cur[i]. words
// holds the rows back to back, stride words each, so row r starts at
// words[r·stride]. A decay of 1 leaves the currents as they are.
//
// The per-row form (AccumulateRange once per row) loads, updates and
// stores every cur[i] once per row. Here each block of blockLanes lanes is
// loaded into locals once, every row's word adds into them, and the block
// is stored once. For ≤8-bit lanes the products come from a copy of the
// dequant LUT scaled by amp, built once per call. Each lane still receives
// the same rounded products, added in the same (rows) order, as the
// per-row form, so the sums are bit-identical; duplicate rows add twice,
// as they would there. Lanes before the first and after the last full
// block take the per-row form.
//
// 8-bit lanes (Q1.7) run their blocks on the AVX2 kernel where the host
// has it (see AVX2), with the decay fused into the block's load; it adds
// the same products in the same order, so the currents do not depend on
// the kernel.
//
//psslint:noalloc
func (p *Packing) AccumulateRows(words []Word, stride int, rows []int, amp, decay float64, cur []float64, lo, hi int) {
	p.accumulateRows(words, stride, rows, amp, decay, cur, lo, hi, false)
}

// AccumulateRowsGo is AccumulateRows with its 8-bit blocks on the Go
// kernel whatever the build and host: the kernel race builds, builds off
// amd64 and CPUs without AVX2 run, and the oracle of the AVX2 kernel. The
// currents are bit-identical to AccumulateRows'. It lets a benchmark time
// the Go kernel on a host that runs the AVX2 one.
//
//psslint:noalloc
func (p *Packing) AccumulateRowsGo(words []Word, stride int, rows []int, amp, decay float64, cur []float64, lo, hi int) {
	p.accumulateRows(words, stride, rows, amp, decay, cur, lo, hi, true)
}

// accumulateRows is AccumulateRows; goBlocks keeps its 8-bit blocks on
// the Go kernel.
//
//psslint:noalloc
func (p *Packing) accumulateRows(words []Word, stride int, rows []int, amp, decay float64, cur []float64, lo, hi int, goBlocks bool) {
	if lo >= hi {
		return
	}
	blo := (lo + blockLanes - 1) &^ (blockLanes - 1)
	bhi := hi &^ (blockLanes - 1)
	if len(rows) == 0 || blo >= bhi || (p.lut == nil && p.width != 16) {
		// Nothing to add, no full block, or 32-bit lanes (two per word),
		// which only a hand-built Format literal reaches: NewFormat caps
		// formats at 31 bits.
		decayRange(cur[lo:hi], decay)
		p.accumulateEach(words, stride, rows, amp, cur, lo, hi)
		return
	}
	decayRange(cur[lo:blo], decay)
	p.accumulateEach(words, stride, rows, amp, cur, lo, blo)
	switch {
	case p.width == 8 && goBlocks:
		p.blocks8Go(words, stride, rows, amp, decay, cur, blo, bhi)
	case p.width == 8:
		p.blocks8(words, stride, rows, amp, decay, cur, blo, bhi)
	case p.lut != nil:
		decayRange(cur[blo:bhi], decay)
		var t [256]float64
		for c, v := range p.lut {
			t[c] = v * amp
		}
		p.accumulateBlocksLUT(words, stride, rows, &t, cur, blo, bhi)
	default:
		decayRange(cur[blo:bhi], decay)
		p.accumulateBlocks16(words, stride, rows, amp, cur, blo, bhi)
	}
	decayRange(cur[bhi:hi], decay)
	p.accumulateEach(words, stride, rows, amp, cur, bhi, hi)
}

// decayRange scales every current by decay, or clears it when decay is 0:
// the synaptic trace's decay before a step's spikes add into it.
func decayRange(cur []float64, decay float64) {
	if decay == 0 {
		clear(cur)
		return
	}
	for i := range cur {
		cur[i] *= decay
	}
}

// blocks8Go is the Go form of AccumulateRows' 8-bit blocks over the
// block-aligned lanes [lo, hi): the decay pass, then accumulateBlocks8 over
// the amp-scaled LUT. It is the oracle of the AVX2 kernel and the fallback
// where that kernel does not run.
//
//psslint:noalloc
func (p *Packing) blocks8Go(words []Word, stride int, rows []int, amp, decay float64, cur []float64, lo, hi int) {
	decayRange(cur[lo:hi], decay)
	var t [256]float64
	for c, v := range p.lut {
		t[c] = v * amp
	}
	accumulateBlocks8(words, stride, rows, &t, cur, lo, hi)
}

// accumulateEach is the per-row form of AccumulateRows.
func (p *Packing) accumulateEach(words []Word, stride int, rows []int, amp float64, cur []float64, lo, hi int) {
	if lo >= hi {
		return
	}
	for _, r := range rows {
		p.AccumulateRange(words[r*stride:(r+1)*stride], amp, cur, lo, hi)
	}
}

// accumulateBlocks8 runs the register blocks of AccumulateRows for 8-bit
// lanes (Q1.7, the paper's headline format); t is the amp-scaled LUT and
// [lo, hi) is block-aligned. A block is one word, so one load per row
// feeds all eight accumulators, and the constant byte shifts index the
// 256-entry table without a bounds check. It measures about 30% faster
// than the variable-width form below.
func accumulateBlocks8(words []Word, stride int, rows []int, t *[256]float64, cur []float64, lo, hi int) {
	for b := lo; b < hi; b += blockLanes {
		wi := b / 8
		c := cur[b : b+blockLanes : b+blockLanes]
		a0, a1, a2, a3, a4, a5, a6, a7 := c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]
		for _, r := range rows {
			x := words[r*stride+wi]
			a0 += t[uint8(x)]
			a1 += t[uint8(x>>8)]
			a2 += t[uint8(x>>16)]
			a3 += t[uint8(x>>24)]
			a4 += t[uint8(x>>32)]
			a5 += t[uint8(x>>40)]
			a6 += t[uint8(x>>48)]
			a7 += t[uint8(x>>56)]
		}
		c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7] = a0, a1, a2, a3, a4, a5, a6, a7
	}
}

// accumulateBlocksLUT runs the register blocks of AccumulateRows for 2-
// and 4-bit lanes; t is the amp-scaled LUT and [lo, hi) is block-aligned.
// A block is 8·width bits of one word, so one load per row feeds all eight
// accumulators. Indexing the 256-entry table with a uint8 needs no bounds
// check.
func (p *Packing) accumulateBlocksLUT(words []Word, stride int, rows []int, t *[256]float64, cur []float64, lo, hi int) {
	w := p.width & 63 // masked: the shifts below need no overflow check
	m := uint8(p.laneMask)
	for b := lo; b < hi; b += blockLanes {
		wi := b / p.lanes
		sh := uint(b%p.lanes) * w & 63
		c := cur[b : b+blockLanes : b+blockLanes]
		a0, a1, a2, a3, a4, a5, a6, a7 := c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]
		for _, r := range rows {
			x := words[r*stride+wi] >> sh
			a0 += t[uint8(x)&m]
			x >>= w
			a1 += t[uint8(x)&m]
			x >>= w
			a2 += t[uint8(x)&m]
			x >>= w
			a3 += t[uint8(x)&m]
			x >>= w
			a4 += t[uint8(x)&m]
			x >>= w
			a5 += t[uint8(x)&m]
			x >>= w
			a6 += t[uint8(x)&m]
			x >>= w
			a7 += t[uint8(x)&m]
		}
		c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7] = a0, a1, a2, a3, a4, a5, a6, a7
	}
}

// accumulateBlocks16 runs the register blocks of AccumulateRows for 16-bit
// lanes. A block spans two words of four lanes.
// There is no LUT, so each add takes the product float64(c)·step·amp in
// the same order and rounding as AccumulateRange.
func (p *Packing) accumulateBlocks16(words []Word, stride int, rows []int, amp float64, cur []float64, lo, hi int) {
	step := p.step
	for b := lo; b < hi; b += blockLanes {
		wi := b / 4
		c := cur[b : b+blockLanes : b+blockLanes]
		a0, a1, a2, a3, a4, a5, a6, a7 := c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]
		for _, r := range rows {
			pair := words[r*stride+wi : r*stride+wi+2 : r*stride+wi+2]
			x, y := pair[0], pair[1]
			a0 += float64(float64(uint16(x)) * step * amp)
			a1 += float64(float64(uint16(x>>16)) * step * amp)
			a2 += float64(float64(uint16(x>>32)) * step * amp)
			a3 += float64(float64(uint16(x>>48)) * step * amp)
			a4 += float64(float64(uint16(y)) * step * amp)
			a5 += float64(float64(uint16(y>>16)) * step * amp)
			a6 += float64(float64(uint16(y>>32)) * step * amp)
			a7 += float64(float64(uint16(y>>48)) * step * amp)
		}
		c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7] = a0, a1, a2, a3, a4, a5, a6, a7
	}
}

// AVX2 reports whether this build runs the AVX2 assembly kernels on this
// host: the 8-bit blocks of AccumulateRows here and the LIF step of
// neuron.Population.CandidatesRange. It is false off amd64, on a CPU
// without AVX2 and in race builds, which run the Go kernels.
func AVX2() bool { return avx2 }

// AVX512 reports whether this build runs the AVX-512F/DQ assembly kernels
// on this host: the stochastic STDP draws of synapse.Plasticity. It is
// false off amd64, on a CPU without AVX-512F and AVX-512DQ or an operating
// system that does not save the ZMM state, and in race builds, which run
// the Go kernels.
func AVX512() bool { return avx512 }
