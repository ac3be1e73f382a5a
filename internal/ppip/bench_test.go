package ppip

import (
	"math"
	"testing"
)

// BenchmarkTableEvaluate times one PPIP table evaluation (tier lookup,
// local coordinate, fixed-point Horner) averaged over a sweep of x that
// visits every segment of the paper scheme.
func BenchmarkTableEvaluate(b *testing.B) {
	tab, err := Build(func(x float64) float64 { return math.Exp(-3 * x) }, PaperScheme, 22)
	if err != nil {
		b.Fatal(err)
	}
	xs := make([]float64, 4096)
	for i := range xs {
		// Squared-distance-like sweep: dense at small x like the tiers.
		r := (float64(i) + 0.5) / float64(len(xs))
		xs[i] = r * r
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += tab.Evaluate(xs[i&(len(xs)-1)])
	}
	if math.IsNaN(sink) {
		b.Fatal("NaN")
	}
}
