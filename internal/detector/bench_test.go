package detector

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/workspace"
)

// BenchmarkEdgeFeatures times stage 3's edge-feature matrix over an
// Ex3Like(0.1) event (graph_build's event size) with about four edges
// per hit, at Ex3's 2 columns and CTD's 8.
func BenchmarkEdgeFeatures(b *testing.B) {
	for _, spec := range []Spec{Ex3Like(0.1), CTDLike(0.004)} {
		b.Run(spec.Name, func(b *testing.B) {
			ev := GenerateEvent(spec, rng.New(4))
			src, dst := featureEdges(ev, rng.New(5))
			arena := workspace.NewArena()
			b.ReportAllocs()
			for b.Loop() {
				EdgeFeaturesWith(arena, spec, ev, src, dst)
				arena.Reset()
			}
			b.ReportMetric(float64(len(src)), "edges")
		})
	}
}
