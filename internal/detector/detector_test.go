package detector

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func smallSpec() Spec {
	s := Ex3Like(0.05) // ~65 particles
	s.NumEvents = 4
	return s
}

func TestGenerateEventBasics(t *testing.T) {
	ev := GenerateEvent(smallSpec(), rng.New(1))
	if ev.NumHits() == 0 {
		t.Fatal("no hits generated")
	}
	if ev.Features.Rows() != ev.NumHits() || ev.Features.Cols() != 6 {
		t.Fatalf("feature matrix %dx%d for %d hits", ev.Features.Rows(), ev.Features.Cols(), ev.NumHits())
	}
	if len(ev.TruthSrc) != len(ev.TruthDst) {
		t.Fatal("truth edge lists unbalanced")
	}
	if len(ev.TruthSrc) == 0 {
		t.Fatal("no truth edges")
	}
}

func TestHitsLieOnLayers(t *testing.T) {
	spec := smallSpec()
	ev := GenerateEvent(spec, rng.New(2))
	for i, h := range ev.Hits {
		r := math.Hypot(h.X, h.Y)
		if math.Abs(r-spec.Layers[h.Layer]) > 1e-9 {
			t.Fatalf("hit %d radius %v but layer %d radius %v", i, r, h.Layer, spec.Layers[h.Layer])
		}
		if math.Abs(h.Z) > spec.ZMax+5*spec.SigmaZ {
			t.Fatalf("hit %d |z|=%v beyond barrel %v", i, math.Abs(h.Z), spec.ZMax)
		}
	}
}

func TestTruthEdgesConnectSameParticleAdjacentLayers(t *testing.T) {
	ev := GenerateEvent(smallSpec(), rng.New(3))
	for k := range ev.TruthSrc {
		a, b := ev.Hits[ev.TruthSrc[k]], ev.Hits[ev.TruthDst[k]]
		if a.Particle != b.Particle || a.Particle < 0 {
			t.Fatalf("truth edge %d connects particles %d and %d", k, a.Particle, b.Particle)
		}
		if b.Layer <= a.Layer {
			t.Fatalf("truth edge %d not inner→outer: layers %d→%d", k, a.Layer, b.Layer)
		}
	}
}

func TestIsTruthEdgeSymmetric(t *testing.T) {
	ev := GenerateEvent(smallSpec(), rng.New(4))
	k := len(ev.TruthSrc) / 2
	a, b := ev.TruthSrc[k], ev.TruthDst[k]
	if !ev.IsTruthEdge(a, b) || !ev.IsTruthEdge(b, a) {
		t.Fatal("IsTruthEdge not symmetric")
	}
	if ev.IsTruthEdge(a, a) {
		t.Fatal("self loop labeled true")
	}
}

// TestParticleHitsLayerOrdered: each particle's hits are recorded inner
// to outer, one per layer, so in hit-index order their layers rise.
func TestParticleHitsLayerOrdered(t *testing.T) {
	ev := GenerateEvent(smallSpec(), rng.New(5))
	layers := make(map[int][]int) // particle → its hits' layers in index order
	for _, h := range ev.Hits {
		if h.Particle >= 0 {
			layers[h.Particle] = append(layers[h.Particle], h.Layer)
		}
	}
	reconstructable := 0
	for pid, ls := range layers {
		for i := 1; i < len(ls); i++ {
			if ls[i] <= ls[i-1] {
				t.Fatalf("particle %d: layers %v do not rise", pid, ls)
			}
		}
		if len(ls) >= 3 {
			reconstructable++
		}
	}
	if reconstructable == 0 {
		t.Fatal("no particle with 3 or more hits")
	}
}

func TestNoiseHitsPresent(t *testing.T) {
	spec := smallSpec()
	spec.NoiseFraction = 0.2
	ev := GenerateEvent(spec, rng.New(6))
	noise := 0
	for _, h := range ev.Hits {
		if h.Particle == -1 {
			noise++
		}
	}
	if noise == 0 {
		t.Fatal("no noise hits with 20% noise fraction")
	}
	// Noise must never appear in truth edges.
	for k := range ev.TruthSrc {
		if ev.Hits[ev.TruthSrc[k]].Particle == -1 || ev.Hits[ev.TruthDst[k]].Particle == -1 {
			t.Fatal("noise hit in truth edge")
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := smallSpec()
	a := Generate(spec, 99)
	b := Generate(spec, 99)
	if len(a.Events) != len(b.Events) {
		t.Fatal("event counts differ")
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		if ea.NumHits() != eb.NumHits() {
			t.Fatalf("event %d hit counts differ", i)
		}
		if ea.Features.MaxAbsDiff(eb.Features) != 0 {
			t.Fatalf("event %d features differ", i)
		}
	}
}

func TestSplitProportions(t *testing.T) {
	spec := smallSpec()
	spec.NumEvents = 10
	ds := Generate(spec, 7)
	train, val, test := ds.Split(0.8, 0.1)
	if len(train) != 8 || len(val) != 1 || len(test) != 1 {
		t.Fatalf("split %d/%d/%d, want 8/1/1", len(train), len(val), len(test))
	}
}

func TestCTDLikeSpecMatchesTableI(t *testing.T) {
	s := CTDLike(1)
	if s.VertexFeatures != 14 || s.EdgeFeatures != 8 || s.MLPLayers != 3 || s.NumEvents != 80 {
		t.Fatalf("CTD spec fields wrong: %+v", s)
	}
	e := Ex3Like(1)
	if e.VertexFeatures != 6 || e.EdgeFeatures != 2 || e.MLPLayers != 2 || e.NumEvents != 80 {
		t.Fatalf("Ex3 spec fields wrong: %+v", e)
	}
}

func TestEdgeFeatureShapes(t *testing.T) {
	spec := smallSpec()
	ev := GenerateEvent(spec, rng.New(8))
	f := EdgeFeatures(spec, ev, ev.TruthSrc, ev.TruthDst)
	if f.Rows() != len(ev.TruthSrc) || f.Cols() != spec.EdgeFeatures {
		t.Fatalf("edge features %dx%d", f.Rows(), f.Cols())
	}
	// Truth edges go inner→outer, so Δr must be positive.
	for k := 0; k < f.Rows(); k++ {
		if f.At(k, 0) <= 0 {
			t.Fatalf("truth edge %d has non-positive Δr %v", k, f.At(k, 0))
		}
	}
}

func TestEdgeFeaturesCTDWidth(t *testing.T) {
	spec := CTDLike(0.002)
	spec.NumEvents = 1
	ev := GenerateEvent(spec, rng.New(9))
	f := EdgeFeatures(spec, ev, ev.TruthSrc, ev.TruthDst)
	if f.Cols() != 8 {
		t.Fatalf("CTD edge feature width %d, want 8", f.Cols())
	}
	if ev.Features.Cols() != 14 {
		t.Fatalf("CTD vertex feature width %d, want 14", ev.Features.Cols())
	}
}

func TestComputeStats(t *testing.T) {
	spec := smallSpec()
	ds := Generate(spec, 10)
	st := ds.ComputeStats()
	if st.Graphs != spec.NumEvents {
		t.Fatalf("stats graphs %d", st.Graphs)
	}
	if st.AvgVertices <= 0 || st.AvgTruthEdges <= 0 {
		t.Fatal("empty stats")
	}
	if st.AvgTruthEdges >= st.AvgVertices {
		t.Fatalf("truth edges (%v) should be < vertices (%v) for tracks", st.AvgTruthEdges, st.AvgVertices)
	}
}

func TestWrapAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{3 * math.Pi, math.Pi},
		{-3 * math.Pi, math.Pi}, // wraps to +π after two additions
		{math.Pi / 2, math.Pi / 2},
	}
	for _, c := range cases {
		got := wrapAngle(c.in)
		if math.Abs(got-c.want) > 1e-12 && math.Abs(got+c.want) > 1e-12 {
			t.Fatalf("wrapAngle(%v) = %v", c.in, got)
		}
		if got > math.Pi+1e-12 || got < -math.Pi-1e-12 {
			t.Fatalf("wrapAngle(%v) = %v outside ±π", c.in, got)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	r := rng.New(11)
	for _, lambda := range []float64{3, 50} {
		const trials = 5000
		sum := 0.0
		for i := 0; i < trials; i++ {
			sum += float64(poisson(r, lambda))
		}
		mean := sum / trials
		if math.Abs(mean-lambda) > 0.1*lambda {
			t.Fatalf("poisson(%v) mean %v", lambda, mean)
		}
	}
}

func TestEtaOf(t *testing.T) {
	if math.Abs(etaOf(1, 0)) > 1e-12 {
		t.Fatal("eta at z=0 should be 0")
	}
	if etaOf(1, 1) <= 0 || etaOf(1, -1) >= 0 {
		t.Fatal("eta sign wrong")
	}
}
