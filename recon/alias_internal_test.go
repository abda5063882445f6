package recon

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/detector"
	"repro/internal/kernels"
	"repro/internal/pipeline"
)

// stageOutputs runs each default Float64 stage on one event over a
// fixed (truth-level) edge list, so the three outputs depend on the
// stage weights only: the stage-1 embedding, the stage-3 filter scores
// and the stage-4 GNN scores.
func stageOutputs(t *testing.T, r *Reconstructor, ev *Event) (emb, filt, gnn []float64) {
	t.Helper()
	ctx := r.kernelCtx(context.Background())
	m, err := r.embedder.Embed(ctx, nil, ev)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := ev.TruthSrc, ev.TruthDst
	filt = r.filter.(mlpFilter[float64]).fw.filter.ScoresCtx(kernels.From(ctx), nil, ev.Features, detector.EdgeFeatures(r.spec, ev, src, dst), src, dst)
	gnn, err = r.classifier.ScoreEdges(ctx, nil, pipeline.AssembleGraph(r.spec, ev, src, dst))
	if err != nil {
		t.Fatal(err)
	}
	return append([]float64(nil), m.Data()...), filt, gnn
}

// TestFloat64StagesTrackWeightsWithoutRefresh makes the aliasing of the
// Float64 inference views observable: after a first scoring pass, a
// weight overwritten through Params() and a LoadCheckpoint of other
// weights both show in the very next pass — which equals a freshly
// constructed reconstructor holding the same weights — with no refresh
// call in between.
func TestFloat64StagesTrackWeightsWithoutRefresh(t *testing.T) {
	spec := detector.Ex3Like(0.02)
	spec.NumEvents = 1
	ev := detector.Generate(spec, 5).Events[0]
	opts := func(seed uint64) []Option { return []Option{WithSeed(seed), WithGNN(8, 2)} }
	build := func(seed uint64) *Reconstructor {
		r, err := New(spec, opts(seed)...)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// nudge overwrites one weight of each stage model in place.
	nudge := func(r *Reconstructor) {
		for _, ps := range [][]*Param{r.embedModel.Params(), r.filterModel.Params(), r.gnnModel.Params()} {
			ps[0].Value.Data()[0] += 0.5
		}
	}
	same := func(name string, r, fresh *Reconstructor) {
		t.Helper()
		e1, f1, g1 := stageOutputs(t, r, ev)
		e2, f2, g2 := stageOutputs(t, fresh, ev)
		if !reflect.DeepEqual(e1, e2) || !reflect.DeepEqual(f1, f2) || !reflect.DeepEqual(g1, g2) {
			t.Fatalf("%s: a reconstructor that had already scored differs from a fresh one with the same weights", name)
		}
	}

	r := build(9)
	e0, f0, g0 := stageOutputs(t, r, ev) // the first pass: anything cached is cached now

	nudge(r)
	fresh := build(9)
	nudge(fresh)
	same("weight overwritten through Params()", r, fresh)
	if e1, f1, g1 := stageOutputs(t, r, ev); reflect.DeepEqual(e0, e1) || reflect.DeepEqual(f0, f1) || reflect.DeepEqual(g0, g1) {
		t.Fatal("an overwritten weight left a stage's output unchanged")
	}

	other := build(10)
	ckpt := filepath.Join(t.TempDir(), "other.ckpt.gz")
	if err := other.SaveCheckpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	if err := r.LoadCheckpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	same("LoadCheckpoint", r, other)
}
