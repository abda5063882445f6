package filter

import (
	"testing"

	"repro/internal/detector"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rng"
)

// buildTrainingGraph creates a candidate graph from truth edges plus
// random fakes, with labels.
func buildTrainingGraph(ev *detector.Event, fakeRatio float64, r *rng.Rand) (src, dst []int, labels []float64) {
	src = append(src, ev.TruthSrc...)
	dst = append(dst, ev.TruthDst...)
	labels = make([]float64, len(src))
	for i := range labels {
		labels[i] = 1
	}
	n := ev.NumHits()
	for i := 0; i < int(float64(len(ev.TruthSrc))*fakeRatio); i++ {
		a, b := r.Intn(n), r.Intn(n)
		if a == b || ev.IsTruthEdge(a, b) {
			continue
		}
		src = append(src, a)
		dst = append(dst, b)
		labels = append(labels, 0)
	}
	return src, dst, labels
}

func TestFilterLearnsToSeparate(t *testing.T) {
	spec := detector.Ex3Like(0.04)
	spec.NumEvents = 2
	ds := detector.Generate(spec, 11)
	cfg := DefaultConfig(spec.VertexFeatures, spec.EdgeFeatures, spec.MLPLayers)
	f := New(cfg, rng.New(1))
	r := rng.New(2)

	ev := ds.Events[0]
	src, dst, labels := buildTrainingGraph(ev, 2, r)
	edgeFeat := detector.EdgeFeatures(spec, ev, src, dst)

	before := metrics.AUC(f.ScoresCtx(kernels.Context{}, nil, ev.Features, edgeFeat, src, dst), labels)
	opt := nn.NewAdam(cfg.LR)
	for epoch := 0; epoch < 40; epoch++ {
		f.TrainStepWith(kernels.Context{}, nil, ev.Features, edgeFeat, src, dst, labels, opt)
	}
	after := metrics.AUC(f.ScoresCtx(kernels.Context{}, nil, ev.Features, edgeFeat, src, dst), labels)
	if after < 0.9 {
		t.Fatalf("filter AUC %v after training (before %v)", after, before)
	}
	if after <= before {
		t.Fatalf("training did not improve AUC: %v -> %v", before, after)
	}
}

func TestKeepMaskMatchesThreshold(t *testing.T) {
	spec := detector.Ex3Like(0.03)
	spec.NumEvents = 1
	ds := detector.Generate(spec, 12)
	ev := ds.Events[0]
	cfg := DefaultConfig(spec.VertexFeatures, spec.EdgeFeatures, spec.MLPLayers)
	cfg.Threshold = 0.5
	f := New(cfg, rng.New(3))
	src, dst := ev.TruthSrc, ev.TruthDst
	edgeFeat := detector.EdgeFeatures(spec, ev, src, dst)
	scores := f.ScoresCtx(kernels.Context{}, nil, ev.Features, edgeFeat, src, dst)
	keep := f.KeepCtx(kernels.Context{}, nil, ev.Features, edgeFeat, src, dst)
	for i := range scores {
		if keep[i] != (scores[i] >= 0.5) {
			t.Fatalf("keep[%d]=%v but score %v", i, keep[i], scores[i])
		}
	}
}

func TestTrainStepEmptyEdges(t *testing.T) {
	spec := detector.Ex3Like(0.03)
	cfg := DefaultConfig(spec.VertexFeatures, spec.EdgeFeatures, spec.MLPLayers)
	f := New(cfg, rng.New(4))
	spec.NumEvents = 1
	ds := detector.Generate(spec, 13)
	ev := ds.Events[0]
	loss := f.TrainStepWith(kernels.Context{}, nil, ev.Features, detector.EdgeFeatures(spec, ev, nil, nil), nil, nil, nil, nn.NewSGD(0.1))
	if loss != 0 {
		t.Fatalf("empty edge train step returned %v", loss)
	}
}

func TestPosWeightShiftsScores(t *testing.T) {
	// With a high positive weight the classifier should push scores up on
	// an all-positive training set faster than with weight 1.
	spec := detector.Ex3Like(0.03)
	spec.NumEvents = 1
	ds := detector.Generate(spec, 14)
	ev := ds.Events[0]
	src, dst := ev.TruthSrc, ev.TruthDst
	edgeFeat := detector.EdgeFeatures(spec, ev, src, dst)
	labels := make([]float64, len(src))
	for i := range labels {
		labels[i] = 1
	}
	mean := func(posWeight float64) float64 {
		cfg := DefaultConfig(spec.VertexFeatures, spec.EdgeFeatures, spec.MLPLayers)
		cfg.PosWeight = posWeight
		f := New(cfg, rng.New(5))
		opt := nn.NewSGD(0.05)
		for i := 0; i < 10; i++ {
			f.TrainStepWith(kernels.Context{}, nil, ev.Features, edgeFeat, src, dst, labels, opt)
		}
		s := f.ScoresCtx(kernels.Context{}, nil, ev.Features, edgeFeat, src, dst)
		total := 0.0
		for _, v := range s {
			total += v
		}
		return total / float64(len(s))
	}
	if mean(5) <= mean(1) {
		t.Fatal("higher posWeight did not increase positive scores")
	}
}
