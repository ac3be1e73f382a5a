package ppip

import (
	"fmt"
	"math"

	"anton/internal/fixp"
)

// Tier is one band of the tiered index scheme: Entries segments of equal
// width covering [Start, End) of the normalized squared distance
// x = (r/R)^2 in [0, 1). Narrower segments are allocated where the
// function varies rapidly (small r).
type Tier struct {
	Start, End float64
	Entries    int
}

// Scheme is a tiered segmentation of [0, 1).
type Scheme []Tier

// PaperScheme is the paper's example configuration: "64 entries for
// (r/R)^2 in [0, 1/128), 96 entries for [1/128, 1/32), 56 entries for
// [1/32, 1/4) and 24 entries for [1/4, 1)" — 240 segments total.
var PaperScheme = Scheme{
	{Start: 0, End: 1.0 / 128, Entries: 64},
	{Start: 1.0 / 128, End: 1.0 / 32, Entries: 96},
	{Start: 1.0 / 32, End: 1.0 / 4, Entries: 56},
	{Start: 1.0 / 4, End: 1, Entries: 24},
}

// Validate checks that the tiers tile [0, 1) contiguously.
func (s Scheme) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("ppip: empty scheme")
	}
	if s[0].Start != 0 {
		return fmt.Errorf("ppip: scheme must start at 0, got %g", s[0].Start)
	}
	for i, t := range s {
		if t.Entries <= 0 || t.End <= t.Start {
			return fmt.Errorf("ppip: tier %d invalid: %+v", i, t)
		}
		if i > 0 && s[i-1].End != t.Start {
			return fmt.Errorf("ppip: tier %d not contiguous: %g vs %g", i, s[i-1].End, t.Start)
		}
	}
	if s[len(s)-1].End != 1 {
		return fmt.Errorf("ppip: scheme must end at 1, got %g", s[len(s)-1].End)
	}
	return nil
}

// TotalEntries returns the number of table segments.
func (s Scheme) TotalEntries() int {
	n := 0
	for _, t := range s {
		n += t.Entries
	}
	return n
}

// Segment is one table entry: a cubic polynomial in the segment-local
// coordinate t in [0, 1), stored block-floating-point — four mantissas
// sharing a single exponent, as in the hardware.
type Segment struct {
	Lo, Hi   float64  // normalized x-range of the segment
	Mantissa [4]int64 // c0..c3 mantissas, MantissaBits wide
	Exp      int      // shared power-of-two exponent
}

// Table is a complete PPIP function table: f(x) for x = (r/R)^2 in [0,1).
type Table struct {
	Scheme       Scheme
	Segments     []Segment
	MantissaBits uint // 19-22 in the hardware (Figure 4a)
	TBits        uint // fixed-point bits of the local coordinate t

	// FloatCoeffs retains the continuous (pre-quantization) piecewise
	// coefficients for error analysis.
	FloatCoeffs [][4]float64

	// The lookup index, built by index() from the scheme and segments
	// (Build and ReadTable call it; a Table must come from one of them).
	tiers  []tierIndex // per-tier constants of the segment formula
	tierOf []int32     // grid cell of x -> first tier that can hold x
	gridN  float64     // cells per unit x: len(tierOf), a power of two
	spans  []span      // per-segment local-coordinate constants

	// scale caches 2^Exp / 2^(MantissaBits-1) per segment so Evaluate
	// applies the block exponent with one multiply instead of a Exp2 call
	// per evaluation. Both factors are exact powers of two, so the cached
	// product is bit-identical to computing them on the fly.
	scale []float64
}

// tierIndex holds what segmentIndex needs of one tier: the segment
// number is base + int((x-start)/w), with w the tier's segment width.
type tierIndex struct {
	start, end float64
	w, inv     float64 // inv = 1/w when w is a power of two, else 0
	base       int     // index of the tier's first segment
	entries    int
}

// span holds what Locate needs of one segment: t = (x-lo)/w with
// w = Hi-Lo.
type span struct {
	lo, w, inv float64 // inv as in tierIndex
}

// belowOne is the largest float64 below 1, math.Nextafter(1, 0).
const belowOne = 1 - 0x1p-53

// maxGrid caps the tier grid of index(): a scheme whose narrowest tier
// is finer than 1/maxGrid still looks up exactly, walking the few tiers
// a grid cell straddles.
const maxGrid = 1 << 12

// pow2Recip returns 1/w when w is a power of two with a finite
// reciprocal, and 0 otherwise. For such w, y*(1/w) and y/w are both the
// correctly rounded value of the same real number, so they are the same
// float64 for every y (NaN, infinities and subnormals included).
func pow2Recip(w float64) float64 {
	if frac, _ := math.Frexp(w); frac != 0.5 {
		return 0
	}
	if inv := 1 / w; !math.IsInf(inv, 0) {
		return inv
	}
	return 0
}

// index (re)builds the lookup index and the output scale cache from the
// scheme and the segments.
//
// The tier of x is the first tier with x < End (the last tier when there
// is none: x >= 1 or NaN). Instead of a loop over the tiers, x picks a
// cell of a uniform grid of gridN cells over [0,1), a power of two at
// least as fine as the narrowest tier (up to maxGrid), so x*gridN is
// exact; tierOf maps the cell to the tier holding its left edge, which
// is never past x's tier, and a short forward walk (no step at all for
// PaperScheme, whose tier edges are grid edges) finishes the search.
// The segment inside the tier then comes from the same expression the
// tier loop used, so every x lands in the same segment.
func (t *Table) index() {
	t.tiers = make([]tierIndex, len(t.Scheme))
	minW, base := 1.0, 0
	for k, tier := range t.Scheme {
		w := (tier.End - tier.Start) / float64(tier.Entries)
		t.tiers[k] = tierIndex{start: tier.Start, end: tier.End, w: w, inv: pow2Recip(w), base: base, entries: tier.Entries}
		base += tier.Entries
		minW = math.Min(minW, tier.End-tier.Start)
	}
	n := 1
	for n < maxGrid && float64(n)*minW < 1 {
		n *= 2
	}
	t.gridN = float64(n)
	t.tierOf = make([]int32, n)
	k := 0
	for c := range t.tierOf {
		for k < len(t.tiers)-1 && !(float64(c)/t.gridN < t.tiers[k].end) {
			k++
		}
		t.tierOf[c] = int32(k)
	}

	t.spans = make([]span, len(t.Segments))
	t.scale = make([]float64, len(t.Segments))
	half := float64(int64(1) << (t.MantissaBits - 1))
	for i, s := range t.Segments {
		w := s.Hi - s.Lo
		t.spans[i] = span{lo: s.Lo, w: w, inv: pow2Recip(w)}
		t.scale[i] = math.Exp2(float64(s.Exp)) / half
	}
}

// Build fits the function f over [0,1) with per-segment minimax cubics,
// adjusts the constant terms for continuity across segment boundaries,
// and quantizes the coefficients to block floating point with the given
// mantissa width.
func Build(f func(x float64) float64, scheme Scheme, mantissaBits uint) (*Table, error) {
	if err := scheme.Validate(); err != nil {
		return nil, err
	}
	if mantissaBits < 8 || mantissaBits > 32 {
		return nil, fmt.Errorf("ppip: mantissa width %d out of [8,32]", mantissaBits)
	}
	t := &Table{Scheme: scheme, MantissaBits: mantissaBits, TBits: 24}
	for _, tier := range scheme {
		w := (tier.End - tier.Start) / float64(tier.Entries)
		for e := 0; e < tier.Entries; e++ {
			lo := tier.Start + float64(e)*w
			hi := lo + w
			// Fit in the local coordinate t = (x-lo)/w so the narrow
			// datapath sees well-scaled arguments.
			g := func(tt float64) float64 { return f(lo + tt*w) }
			c, _, err := Remez(g, 0, 1, 3)
			if err != nil {
				return nil, err
			}
			var c4 [4]float64
			copy(c4[:], c)
			t.FloatCoeffs = append(t.FloatCoeffs, c4)
			t.Segments = append(t.Segments, Segment{Lo: lo, Hi: hi})
		}
	}
	// Continuity (paper: "the coefficients are adjusted to make the
	// function continuous across segment boundaries"): pick each boundary
	// value as the average of the two adjacent fits, then apply a linear
	// correction within each segment so it hits both of its boundary
	// targets. The correction is local — at most the segment's own fit
	// error — so a poor fit in one segment (e.g. at the clamped core of a
	// divergent kernel) cannot leak into the rest of the table.
	n := len(t.FloatCoeffs)
	bnd := make([]float64, n+1)
	bnd[0] = polyEval(t.FloatCoeffs[0][:], 0)
	bnd[n] = polyEval(t.FloatCoeffs[n-1][:], 1)
	for i := 1; i < n; i++ {
		left := polyEval(t.FloatCoeffs[i-1][:], 1)
		right := polyEval(t.FloatCoeffs[i][:], 0)
		bnd[i] = (left + right) / 2
	}
	for i := 0; i < n; i++ {
		c := &t.FloatCoeffs[i]
		lo := polyEval(c[:], 0)
		hi := polyEval(c[:], 1)
		a := bnd[i] - lo
		c[0] += a
		c[1] += bnd[i+1] - (hi + a)
	}
	// Block floating-point quantization.
	for i := range t.Segments {
		t.quantizeSegment(i)
	}
	t.index()
	return t, nil
}

// quantizeSegment packs the four float coefficients of segment i into a
// shared-exponent block format.
func (t *Table) quantizeSegment(i int) {
	c := t.FloatCoeffs[i]
	maxAbs := 0.0
	for _, v := range c {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	exp := 0
	if maxAbs > 0 {
		exp = int(math.Floor(math.Log2(maxAbs))) + 1 // values fit in [-2^exp, 2^exp)
	}
	scale := math.Exp2(float64(exp))
	half := int64(1) << (t.MantissaBits - 1)
	seg := &t.Segments[i]
	seg.Exp = exp
	for j, v := range c {
		m := int64(math.RoundToEven(v / scale * float64(half)))
		if m > half-1 {
			m = half - 1
		}
		if m < -half {
			m = -half
		}
		seg.Mantissa[j] = m
	}
}

// segmentIndex locates the segment containing normalized x in [0,1).
// Outside that range x < 0 falls in the first tier, and x >= 1 and NaN
// in the last; the segment number is clamped to the tier.
func (t *Table) segmentIndex(x float64) int {
	c := 0
	if f := x * t.gridN; f >= 1 { // x < 0 and NaN stay in cell 0
		c = len(t.tierOf) - 1
		if f < t.gridN {
			c = int(f)
		}
	}
	k := int(t.tierOf[c])
	for k < len(t.tiers)-1 && !(x < t.tiers[k].end) {
		k++
	}
	tier := &t.tiers[k]
	q := x - tier.start
	if tier.inv != 0 {
		q *= tier.inv
	} else {
		q /= tier.w
	}
	e := int(q)
	if e < 0 {
		e = 0
	}
	if e >= tier.entries {
		e = tier.entries - 1
	}
	return tier.base + e
}

// Evaluate computes f(x) for normalized x = (r/R)^2 in [0,1) through the
// fixed-point pipeline: the local coordinate t is quantized to TBits, the
// cubic is evaluated by Horner's rule on integer mantissas with
// round-to-nearest/even after each multiply, and the block exponent is
// applied at the end. This is bit-faithful to the narrow-datapath
// evaluation style of Figure 4a.
func (t *Table) Evaluate(x float64) float64 {
	seg, tq := t.Locate(x)
	return t.EvaluateAt(seg, tq)
}

// Locate returns the segment index and the TBits-quantized local
// coordinate of x. The location depends only on the scheme and TBits, so
// a caller evaluating several kernels of the same x through tables built
// on the same scheme (as the PPIP's electrostatic and LJ tables are) can
// pay the tiered index lookup once and reuse it via EvaluateAt.
func (t *Table) Locate(x float64) (seg int, tq int64) {
	i := t.segmentIndex(x)
	sp := &t.spans[i]
	tt := x - sp.lo
	if sp.inv != 0 {
		tt *= sp.inv
	} else {
		tt /= sp.w
	}
	if tt < 0 {
		tt = 0
	} else if tt >= 1 {
		tt = belowOne
	}
	// Quantize t to TBits fraction bits (TBits&63: see EvaluateAt).
	return i, int64(math.RoundToEven(tt * float64(int64(1)<<(t.TBits&63))))
}

// EvaluateAt computes the table polynomial at a location obtained from
// Locate on a table with an identical scheme and TBits. Horner in
// integer arithmetic: acc and mantissas carry MantissaBits-1 fraction
// bits; each multiply by tq adds TBits, which RoundShift removes.
func (t *Table) EvaluateAt(seg int, tq int64) float64 {
	s := &t.Segments[seg]
	// TBits is below 64 in every table Build or ReadTable makes; the mask
	// only tells the compiler so, which drops the shift-range guards from
	// the inlined RoundShifts.
	tb := t.TBits & 63
	acc := fixp.RoundShift(s.Mantissa[3]*tq, tb) + s.Mantissa[2]
	acc = fixp.RoundShift(acc*tq, tb) + s.Mantissa[1]
	acc = fixp.RoundShift(acc*tq, tb) + s.Mantissa[0]
	return float64(acc) * t.scale[seg]
}

// EvaluateFloat computes f(x) from the continuous piecewise coefficients
// (no quantization) — the reference for isolating quantization error.
func (t *Table) EvaluateFloat(x float64) float64 {
	i := t.segmentIndex(x)
	seg := &t.Segments[i]
	tt := (x - seg.Lo) / (seg.Hi - seg.Lo)
	return polyEval(t.FloatCoeffs[i][:], tt)
}

// MaxError measures the maximum absolute error of the fixed-point table
// against f over [xlo, 1) using a dense scan.
func (t *Table) MaxError(f func(float64) float64, xlo float64, samples int) float64 {
	worst := 0.0
	for i := 0; i < samples; i++ {
		x := xlo + (1-xlo)*(float64(i)+0.5)/float64(samples)
		if e := math.Abs(t.Evaluate(x) - f(x)); e > worst {
			worst = e
		}
	}
	return worst
}
