package synapse

import (
	"fmt"
	"math"

	"parallelspikesim/internal/fixed"
	"parallelspikesim/internal/rng"
)

// Matrix is the all-to-all conductance array connecting NPre input spike
// trains to NPost excitatory neurons, stored pre-major — synapse (pre, post)
// lives at flat index pre·NPost + post — so the hot per-step current
// accumulation (iterate posts for each spiking pre) walks contiguous memory,
// matching the coalesced layout the paper's GPU kernels would use.
//
// Storage is sealed behind the accessor API. For a packable fixed-point
// format (width divides 64: Q0.2, Q0.4, Q1.7, Q1.15) conductances are held
// as native Qm.n codes packed lanes-per-uint64 in a struct-of-arrays row
// layout — each row is a contiguous run of fixed.Word, padded to a word
// boundary. Eq. 3 integration reads whole words of the spiking rows, and
// flat-step LTP/LTD moves one lane at a time (see internal/fixed's packed
// kernels and DESIGN.md §14). The float path and any unpackable format fall
// back to a flat []fixed.Weight behind the same interface.
//
// Reads go through At / ForEachRow / Column / Weights; writes go
// through the quantizing Set or the on-grid SetWeight. No caller sees the
// raw storage: there is no exported backing slice and no mutable row
// accessor, so layout changes cannot leak and every write provably lands on
// the format grid.
type Matrix struct {
	NPre   int
	NPost  int
	Format fixed.Format

	// Exactly one store is active. pk non-nil selects the packed store.
	pk    *fixed.Packing
	words []fixed.Word // packed codes, row-major, wpr words per row
	wpr   int
	g     []fixed.Weight // fallback store: float formats, unpackable widths
}

// NewMatrix allocates an NPre × NPost conductance matrix initialized to zero.
func NewMatrix(nPre, nPost int, format fixed.Format) (*Matrix, error) {
	if nPre <= 0 || nPost <= 0 {
		return nil, fmt.Errorf("synapse: matrix dimensions %d×%d", nPre, nPost)
	}
	m := &Matrix{NPre: nPre, NPost: nPost, Format: format}
	if format.Packable() {
		pk, err := format.Packing()
		if err != nil {
			return nil, err
		}
		m.pk = pk
		m.wpr = pk.WordsFor(nPost)
		m.words = make([]fixed.Word, nPre*m.wpr)
	} else {
		m.g = make([]fixed.Weight, nPre*nPost)
	}
	return m, nil
}

// Len returns the number of synapses.
func (m *Matrix) Len() int { return m.NPre * m.NPost }

// Packed reports whether the packed code store is active (false on the
// float/unpackable fallback).
func (m *Matrix) Packed() bool { return m.pk != nil }

// packing exposes the matrix's lane geometry to the plasticity kernels in
// this package; nil when the fallback store is active.
func (m *Matrix) packing() *fixed.Packing { return m.pk }

// rowWords returns the packed word row of input pre (package-internal: the
// plasticity kernels slice rows and hand them to internal/fixed; nothing
// outside internal/fixed indexes into them).
func (m *Matrix) rowWords(pre int) []fixed.Word {
	return m.words[pre*m.wpr : (pre+1)*m.wpr]
}

// At returns the conductance of the synapse from pre to post.
func (m *Matrix) At(pre, post int) fixed.Weight {
	if m.pk != nil {
		return fixed.Weight(m.pk.Value(m.pk.Get(m.rowWords(pre), post)))
	}
	return m.g[pre*m.NPost+post]
}

// Set stores a conductance, clamping it into the format's representable
// range and snapping it onto the grid by round-to-nearest.
func (m *Matrix) Set(pre, post int, g float64) {
	m.SetWeight(pre, post, m.Format.QuantizeWeight(g, fixed.Nearest, 0))
}

// SetWeight stores an already-quantized conductance. The value must be on
// the format grid (checkpoint restore and snapshot loads hold this by
// construction; the simcheck sanitizer re-verifies at those call sites) —
// an off-grid value would be silently truncated onto the grid by the packed
// store.
func (m *Matrix) SetWeight(pre, post int, w fixed.Weight) {
	if m.pk != nil {
		m.pk.Set(m.rowWords(pre), post, m.pk.CodeOf(w))
		return
	}
	m.g[pre*m.NPost+post] = w
}

// ForEachRow calls fn for every input row in ascending pre order with the
// row's conductances decoded into the Weight domain. The row slice is a
// scratch buffer reused across calls: it is valid only during fn and must
// not be retained or mutated (mutations do not write back).
func (m *Matrix) ForEachRow(fn func(pre int, row []fixed.Weight)) {
	if m.pk == nil {
		for pre := 0; pre < m.NPre; pre++ {
			fn(pre, m.g[pre*m.NPost:(pre+1)*m.NPost])
		}
		return
	}
	row := make([]fixed.Weight, m.NPost)
	codes := make([]uint32, 0, m.NPost)
	for pre := 0; pre < m.NPre; pre++ {
		codes = m.pk.Unpack(m.rowWords(pre), m.NPost, codes[:0])
		for i, c := range codes {
			row[i] = fixed.Weight(m.pk.Value(c))
		}
		fn(pre, row)
	}
}

// Weights returns a fresh pre-major copy of every conductance — the
// sanctioned bulk read-out for digests and golden traces.
func (m *Matrix) Weights() []fixed.Weight {
	out := make([]fixed.Weight, 0, m.Len())
	m.ForEachRow(func(_ int, row []fixed.Weight) {
		out = append(out, row...)
	})
	return out
}

// Column copies the conductances into post neuron `post` from every input
// into dst, which must have length NPre. This is the receptive field of one
// neuron — the paper's "conductance array that learns to recognize a
// specific pattern" (Figs 5, 8a) — delivered in the plain float64 domain
// for read-out and visualization.
func (m *Matrix) Column(post int, dst []float64) {
	if len(dst) != m.NPre {
		panic(fmt.Sprintf("synapse: Column dst length %d, want %d", len(dst), m.NPre))
	}
	if m.pk != nil {
		for pre := 0; pre < m.NPre; pre++ {
			dst[pre] = m.pk.Value(m.pk.Get(m.rowWords(pre), post))
		}
		return
	}
	for pre := 0; pre < m.NPre; pre++ {
		dst[pre] = float64(m.g[pre*m.NPost+post])
	}
}

// InitUniform fills the matrix with independent uniform draws in [lo, hi],
// quantized round-to-nearest onto the format grid. This is the random
// conductance initialization performed before learning. Draws are consumed
// in flat pre-major order regardless of the active store, so seeds
// reproduce the same matrix on every storage layout.
func (m *Matrix) InitUniform(stream *rng.Stream, lo, hi float64) {
	for pre := 0; pre < m.NPre; pre++ {
		for post := 0; post < m.NPost; post++ {
			m.SetWeight(pre, post, m.Format.QuantizeWeight(stream.Range(lo, hi), fixed.Nearest, 0))
		}
	}
}

// Fill sets every conductance to the same (quantized) value.
func (m *Matrix) Fill(g float64) {
	q := m.Format.QuantizeWeight(g, fixed.Nearest, 0)
	if m.pk != nil {
		c := m.pk.CodeOf(q)
		for pre := 0; pre < m.NPre; pre++ {
			row := m.rowWords(pre)
			for post := 0; post < m.NPost; post++ {
				m.pk.Set(row, post, c)
			}
		}
		return
	}
	for i := range m.g {
		m.g[i] = q
	}
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := *m
	if m.pk != nil {
		c.words = append([]fixed.Word(nil), m.words...)
	} else {
		c.g = append([]fixed.Weight(nil), m.g...)
	}
	return &c
}

// Stats returns the minimum, maximum and mean conductance.
func (m *Matrix) Stats() (minG, maxG, mean float64) {
	minG, maxG = math.Inf(1), math.Inf(-1)
	sum := 0.0
	m.ForEachRow(func(_ int, row []fixed.Weight) {
		for _, g := range row {
			v := float64(g)
			if v < minG {
				minG = v
			}
			if v > maxG {
				maxG = v
			}
			sum += v
		}
	})
	return minG, maxG, sum / float64(m.Len())
}

// AccumulateSpikes is eq. 3 for one step over every post neuron: it
// decays each current[i] by decay (clears it when decay is 0) and then adds
// g(pre, i)·amp for every input pre in pres, in pres order. current holds
// one entry per post neuron; a shorter slice panics. The step core
// (network.Core) integrates through it for training and inference alike.
// On the packed store it runs fixed's register-blocked AccumulateRows,
// which reads each spiking row's words once per block of lanes and keeps
// the block's currents in registers across the rows, with the decay fused
// into the block's load; the float fallback runs
// fixed.AccumulateWeightRows, the same shape over float64 weights. Either
// way the currents are bit-identical to a decay pass followed by adding
// the rows one by one.
//
//psslint:noalloc
func (m *Matrix) AccumulateSpikes(pres []int, amp, decay float64, current []float64) {
	current = current[:m.NPost]
	if m.pk != nil {
		m.pk.AccumulateRows(m.words, m.wpr, pres, amp, decay, current, 0, m.NPost)
		return
	}
	fixed.AccumulateWeightRows(m.g, m.NPost, pres, amp, decay, current, 0, m.NPost)
}
