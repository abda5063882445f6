package embed

import (
	"context"
	"testing"

	"repro/internal/detector"
	"repro/internal/kernels"
	"repro/internal/nn"
	"repro/internal/rng"
)

func testEvents(t *testing.T, n int) (detector.Spec, []*detector.Event) {
	t.Helper()
	spec := detector.Ex3Like(0.04)
	spec.NumEvents = n
	ds := detector.Generate(spec, 77)
	return spec, ds.Events
}

func TestEmbedShapes(t *testing.T) {
	spec, evs := testEvents(t, 1)
	cfg := DefaultConfig(spec)
	e := New(cfg, rng.New(1))
	out := e.EmbedCtx(kernels.Context{}, nil, evs[0].Features)
	if out.Rows() != evs[0].NumHits() || out.Cols() != cfg.EmbedDim {
		t.Fatalf("embedding %dx%d", out.Rows(), out.Cols())
	}
}

// pairDistances measures mean squared distance of positive (truth-edge)
// and random negative pairs in embedding space.
func pairDistances(e *Embedder, ev *detector.Event, r *rng.Rand) (pos, neg float64) {
	emb := e.EmbedCtx(kernels.Context{}, nil, ev.Features)
	nPos := 0
	for k := range ev.TruthSrc {
		pos += sqDist(emb.Row(ev.TruthSrc[k]), emb.Row(ev.TruthDst[k]))
		nPos++
	}
	pos /= float64(nPos)
	nNeg := 0
	for nNeg < nPos {
		a, b := r.Intn(ev.NumHits()), r.Intn(ev.NumHits())
		if a == b || ev.IsTruthEdge(a, b) {
			continue
		}
		neg += sqDist(emb.Row(a), emb.Row(b))
		nNeg++
	}
	neg /= float64(nNeg)
	return pos, neg
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func TestTrainingSeparatesPairs(t *testing.T) {
	spec, evs := testEvents(t, 3)
	cfg := DefaultConfig(spec)
	cfg.Epochs = 15
	e := New(cfg, rng.New(2))
	if _, err := e.TrainContext(context.Background(), kernels.Context{}, evs, 3); err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	pos, neg := pairDistances(e, evs[0], r)
	// After metric learning, same-track pairs must sit much closer than
	// random pairs.
	if pos*2 >= neg {
		t.Fatalf("metric learning failed: pos dist² %v vs neg %v", pos, neg)
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	spec, evs := testEvents(t, 2)
	cfg := DefaultConfig(spec)
	cfg.Epochs = 1
	e := New(cfg, rng.New(5))
	first, _ := e.TrainContext(context.Background(), kernels.Context{}, evs, 6)
	cfg.Epochs = 10
	e2 := New(cfg, rng.New(5))
	last, _ := e2.TrainContext(context.Background(), kernels.Context{}, evs, 6)
	if last >= first {
		t.Fatalf("loss did not decrease: first-epoch %v vs 10-epoch %v", first, last)
	}
}

func TestTrainStepHandlesTinyEvent(t *testing.T) {
	spec, _ := testEvents(t, 1)
	cfg := DefaultConfig(spec)
	e := New(cfg, rng.New(7))
	// An event with a single particle (few or no truth edges) must not
	// panic; TrainStepWith may return 0 loss.
	sp := spec
	sp.AvgParticles = 0.0001
	single := detector.GenerateEvent(sp, rng.New(8))
	_ = e.TrainStepWith(kernels.Context{}, nil, single, nn.NewSGD(0), rng.New(9))
}
