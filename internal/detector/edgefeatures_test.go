package detector

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/workspace"
)

// allEightEdgeFeatures is the reference formulation: every edge computes
// all eight formulas, and the matrix keeps the first spec.EdgeFeatures.
func allEightEdgeFeatures(spec Spec, ev *Event, src, dst []int) *tensor.Dense {
	f := tensor.New(len(src), spec.EdgeFeatures)
	rMax := spec.Layers[len(spec.Layers)-1]
	for k := range src {
		a, b := ev.Hits[src[k]], ev.Hits[dst[k]]
		all := []float64{
			(b.R - a.R) / rMax,
			wrapAngle(b.Phi - a.Phi),
			(b.Z - a.Z) / spec.ZMax,
			(etaOf(b.R, b.Z) - etaOf(a.R, a.Z)) / 3.0,
			dist3(a, b) / rMax,
			(a.R + b.R) / (2 * rMax),
			phiSlope(a, b),
			curvatureProxy(a, b),
		}
		copy(f.Row(k), all)
	}
	return f
}

// featureEdges returns an event's truth edges, then random pairs in
// either direction, then self-pairs, which take the zero branches of
// phiSlope and curvatureProxy.
func featureEdges(ev *Event, r *rng.Rand) (src, dst []int) {
	src = append(src, ev.TruthSrc...)
	dst = append(dst, ev.TruthDst...)
	n := ev.NumHits()
	for k := 0; k < 2*n; k++ {
		src = append(src, r.Intn(n))
		dst = append(dst, r.Intn(n))
	}
	for i := 0; i < 5 && i < n; i++ {
		src = append(src, i)
		dst = append(dst, i)
	}
	return src, dst
}

// TestEdgeFeaturesMatchAllEight pins EdgeFeaturesWith, which computes
// only the columns the spec keeps, bitwise to the all-eight reference at
// Ex3's 2 columns, CTD's 8 and a width past the formulas, whose extra
// columns must stay +0 — also when the arena hands out a buffer that
// held other values.
func TestEdgeFeaturesMatchAllEight(t *testing.T) {
	wide := CTDLike(0.002)
	wide.EdgeFeatures = 11
	for _, spec := range []Spec{Ex3Like(0.05), CTDLike(0.002), wide} {
		ev := GenerateEvent(spec, rng.New(13))
		src, dst := featureEdges(ev, rng.New(14))
		want := allEightEdgeFeatures(spec, ev, src, dst)

		dirty := workspace.GetF64(len(src) * spec.EdgeFeatures)
		for i := range dirty {
			dirty[i] = math.NaN()
		}
		workspace.PutF64(dirty)
		arena := workspace.NewArena()
		for _, got := range []*tensor.Dense{EdgeFeatures(spec, ev, src, dst), EdgeFeaturesWith(arena, spec, ev, src, dst)} {
			if got.Rows() != len(src) || got.Cols() != spec.EdgeFeatures {
				t.Fatalf("%s/%d: shape %dx%d", spec.Name, spec.EdgeFeatures, got.Rows(), got.Cols())
			}
			for k := range src {
				for j := 0; j < spec.EdgeFeatures; j++ {
					g, w := got.At(k, j), want.At(k, j)
					if math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s/%d: edge %d column %d = %v, reference %v", spec.Name, spec.EdgeFeatures, k, j, g, w)
					}
				}
			}
		}
		arena.Reset()
	}
}
