package ppip

import (
	"bytes"
	"math"
	"testing"
)

// segmentIndexRef is the per-call tier loop that the precomputed index
// replaced, kept as the oracle: the first tier with x < End (the last tier
// otherwise), then the segment int((x-Start)/w) clamped to the tier.
func segmentIndexRef(t *Table, x float64) int {
	idx := 0
	for _, tier := range t.Scheme {
		if x < tier.End || tier.End == 1 {
			w := (tier.End - tier.Start) / float64(tier.Entries)
			e := int((x - tier.Start) / w)
			if e < 0 {
				e = 0
			}
			if e >= tier.Entries {
				e = tier.Entries - 1
			}
			return idx + e
		}
		idx += tier.Entries
	}
	return len(t.Segments) - 1
}

// locateRef is Locate as it was before the index: the oracle.
func locateRef(t *Table, x float64) (int, int64) {
	i := segmentIndexRef(t, x)
	s := &t.Segments[i]
	tt := (x - s.Lo) / (s.Hi - s.Lo)
	if tt < 0 {
		tt = 0
	} else if tt >= 1 {
		tt = math.Nextafter(1, 0)
	}
	return i, int64(math.RoundToEven(tt * float64(int64(1)<<t.TBits)))
}

// lookupSchemes are the schemes the lookup is checked on: the paper's
// (every segment width a power of two), one with widths that are not,
// and one whose tiers are narrower than a cell of the largest grid, so
// the lookup has to step across tiers inside a cell.
var lookupSchemes = map[string]Scheme{
	"paper": PaperScheme,
	"odd": {
		{Start: 0, End: 0.3, Entries: 7},
		{Start: 0.3, End: 0.7, Entries: 3},
		{Start: 0.7, End: 1, Entries: 5},
	},
	"fine": {
		{Start: 0, End: 1e-5, Entries: 3},
		{Start: 1e-5, End: 3e-5, Entries: 2},
		{Start: 3e-5, End: 1.0 / 3, Entries: 4},
		{Start: 1.0 / 3, End: 1, Entries: 6},
	},
}

func lookupTable(t testing.TB, scheme Scheme) *Table {
	t.Helper()
	tab, err := Build(func(x float64) float64 { return math.Exp(-3*x) + 0.1*x }, scheme, 22)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// reload round-trips tab through the serialized format.
func reload(t testing.TB, tab *Table) *Table {
	t.Helper()
	var buf bytes.Buffer
	if err := tab.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// lookupInputs returns every tier and segment boundary with its two
// neighbouring floats, points inside segments, points next to ties of
// the TBits quantization of t (where one rounding of the local
// coordinate decides tq), and the out-of-range and non-finite inputs.
func lookupInputs(tab *Table) []float64 {
	xs := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), -1, -1e-300, math.Copysign(0, -1), 0,
		5e-324, 1, math.Nextafter(1, 0), math.Nextafter(1, 2), 1.5, 2, 1e10, 1e30, math.MaxFloat64,
	}
	near := func(b float64) {
		xs = append(xs, math.Nextafter(b, -1), b, math.Nextafter(b, 2))
	}
	for _, tier := range tab.Scheme {
		near(tier.Start)
		near(tier.End)
		w := (tier.End - tier.Start) / float64(tier.Entries)
		for e := 0; e <= tier.Entries; e++ {
			near(tier.Start + float64(e)*w)
		}
	}
	for _, s := range tab.Segments {
		near(s.Lo)
		near(s.Hi)
		for k := 1; k < 8; k++ {
			xs = append(xs, s.Lo+(s.Hi-s.Lo)*float64(k)/8)
		}
		q := float64(int64(1) << tab.TBits)
		for k := 0.5; k < q; k += q / 61 {
			near(s.Lo + (s.Hi-s.Lo)*(math.Floor(k)+0.5)/q)
		}
	}
	return xs
}

func checkLookup(t *testing.T, tab *Table, x float64) {
	t.Helper()
	if got, want := tab.segmentIndex(x), segmentIndexRef(tab, x); got != want {
		t.Fatalf("segmentIndex(%v) = %d, oracle %d", x, got, want)
	}
	seg, tq := tab.Locate(x)
	rseg, rtq := locateRef(tab, x)
	if seg != rseg || tq != rtq {
		t.Fatalf("Locate(%v) = (%d, %d), oracle (%d, %d)", x, seg, tq, rseg, rtq)
	}
}

// TestLookupMatchesTierLoop: the precomputed segment index and the
// reciprocal local coordinate give the oracle's segment and quantized t
// at every boundary ±1 ulp, outside [0,1) and on non-finite input, for
// built and deserialized tables alike.
func TestLookupMatchesTierLoop(t *testing.T) {
	for name, scheme := range lookupSchemes {
		built := lookupTable(t, scheme)
		for _, tab := range []*Table{built, reload(t, built)} {
			for _, x := range lookupInputs(tab) {
				checkLookup(t, tab, x)
			}
			for i := 0; i <= 20000; i++ {
				checkLookup(t, tab, float64(i)/20000)
			}
		}
		t.Logf("%s: %d cells", name, len(built.tierOf))
	}
}

// TestPaperSchemeIndex: the paper's tier edges are multiples of 1/128,
// so its grid is 128 cells and no cell straddles a tier edge; every
// segment width is a power of two, so the lookup never divides.
func TestPaperSchemeIndex(t *testing.T) {
	tab := lookupTable(t, PaperScheme)
	if len(tab.tierOf) != 128 {
		t.Errorf("paper grid has %d cells, want 128", len(tab.tierOf))
	}
	for c, k := range tab.tierOf {
		if lo, hi := float64(c)/128, float64(c+1)/128; lo < tab.Scheme[k].Start || hi > tab.Scheme[k].End {
			t.Errorf("cell %d [%g,%g) is not inside tier %d", c, lo, hi, k)
		}
	}
	for k, tier := range tab.tiers {
		if tier.inv == 0 {
			t.Errorf("tier %d width %g not a power of two", k, tier.w)
		}
	}
	for i, sp := range tab.spans {
		if sp.inv == 0 {
			t.Errorf("segment %d width %g not a power of two", i, sp.w)
		}
	}
}

// TestPow2Recip: the reciprocal is used exactly for the finite powers of
// two whose reciprocal is finite.
func TestPow2Recip(t *testing.T) {
	for _, c := range []struct{ w, inv float64 }{
		{1, 1}, {0.5, 2}, {1.0 / 8192, 8192}, {4096, 1.0 / 4096},
		{math.Ldexp(1, -1022), math.Ldexp(1, 1022)},
		{math.Ldexp(1, -1074), 0}, // reciprocal overflows
		{3, 0}, {0.3, 0}, {0, 0}, {-0.5, 0}, {math.Inf(1), 0}, {math.NaN(), 0},
	} {
		if got := pow2Recip(c.w); got != c.inv {
			t.Errorf("pow2Recip(%g) = %g, want %g", c.w, got, c.inv)
		}
	}
}

// FuzzLocate compares the lookup with the tier-loop oracle at arbitrary
// x on every test scheme.
func FuzzLocate(f *testing.F) {
	for _, x := range []float64{0, 0.5, 1.0 / 128, 1.0 / 32, 0.25, 1, -1, math.NaN(), math.Inf(1), 1e-5, 0.3} {
		f.Add(x)
	}
	var tabs []*Table
	for _, scheme := range lookupSchemes {
		tabs = append(tabs, lookupTable(f, scheme))
	}
	f.Fuzz(func(t *testing.T, x float64) {
		for _, tab := range tabs {
			checkLookup(t, tab, x)
		}
	})
}

// FuzzReadTable feeds arbitrary bytes to the table deserializer. It must
// never panic; a table it accepts must look up like the oracle, evaluate
// without panicking, and survive Write/ReadTable with identical bytes
// and identical values.
func FuzzReadTable(f *testing.F) {
	// Small tables keep the seeds short: the fuzzer mutates and
	// minimizes inputs byte by byte, so a 13 KB paper table would stall it.
	for _, scheme := range []Scheme{
		{{Start: 0, End: 1, Entries: 2}},
		{{Start: 0, End: 0.25, Entries: 2}, {Start: 0.25, End: 0.3, Entries: 1}, {Start: 0.3, End: 1, Entries: 3}},
	} {
		var buf bytes.Buffer
		if err := lookupTable(f, scheme).Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("PPIP"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := ReadTable(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := tab.Write(&out); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTable(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-read of a written table: %v", err)
		}
		var again bytes.Buffer
		if err := back.Write(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), again.Bytes()) {
			t.Fatal("Write/ReadTable round trip changed the bytes")
		}
		for _, x := range []float64{-1, 0, 1e-3, 0.1, 0.5, 0.99, 1, math.NaN(), math.Inf(1)} {
			checkLookup(t, tab, x)
			a, b := tab.Evaluate(x), back.Evaluate(x)
			if math.Float64bits(a) != math.Float64bits(b) && !(math.IsNaN(a) && math.IsNaN(b)) {
				t.Fatalf("Evaluate(%v): %v, reloaded %v", x, a, b)
			}
		}
	})
}
