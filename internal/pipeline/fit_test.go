package pipeline

import (
	"context"
	"math"
	"testing"

	"repro/internal/detector"
	"repro/internal/embed"
	"repro/internal/filter"
	"repro/internal/kernels"
	"repro/internal/knnsearch"
	"repro/internal/nn"
	"repro/internal/workspace"
)

// rebuildFilterEpoch is the reference the cached filter fit is held to:
// it rebuilds every event's candidate graph (embedding forward, radius
// graph, edge features, labels) from the frozen embedder before each
// step, borrowing everything from the arena.
func rebuildFilterEpoch(kc kernels.Context, arena *workspace.Arena, cfg Config, e *embed.Embedder, f *filter.EdgeFilter, opt nn.Optimizer, train []*detector.Event) {
	for _, ev := range train {
		mark := arena.Checkpoint()
		embedded := embed.NewInference[float64](e).EmbedCtx(kc, arena, ev.Features)
		src, dst := knnsearch.BuildRadiusGraphCtx(kc, embedded, cfg.Radius, cfg.MaxDegree)
		if len(src) == 0 {
			arena.ResetTo(mark)
			continue
		}
		edgeFeat := detector.EdgeFeaturesWith(arena, cfg.Spec, ev, src, dst)
		labels := arena.F64(len(src))
		for k := range src {
			if ev.IsTruthEdge(src[k], dst[k]) {
				labels[k] = 1
			}
		}
		f.TrainStepWith(kc, arena, ev.Features, edgeFeat, src, dst, labels, opt)
		arena.ResetTo(mark)
	}
}

// TestFitStages13CachedGraphsBitwise holds the cached-graph fit to the
// rebuild-per-epoch reference: the same filter parameters, bit for bit,
// at several epoch counts, the old default of 12 among them.
func TestFitStages13CachedGraphsBitwise(t *testing.T) {
	ds, cfg := smallDataset(t, 3)
	kc := kernels.Context{}
	counts := []int{1, 5, 12}
	flat := func(f *filter.EdgeFilter) []float64 {
		buf := make([]float64, nn.ParamElements(f.Params()))
		nn.FlattenParams(f.Params(), buf)
		return buf
	}

	// One reference run, its parameters taken after each counted epoch.
	refEmb, refFilt, _ := newModels(cfg, 4)
	if _, err := refEmb.TrainContext(context.Background(), kc, ds.Events, 5); err != nil {
		t.Fatal(err)
	}
	opt := nn.NewAdam(cfg.Filter.LR)
	arena := workspace.NewArena()
	defer arena.Reset()
	want := map[int][]float64{}
	for epoch := 1; epoch <= counts[len(counts)-1]; epoch++ {
		rebuildFilterEpoch(kc, arena, cfg, refEmb, refFilt, opt, ds.Events)
		want[epoch] = flat(refFilt)
	}

	for _, epochs := range counts {
		cfg.Filter.Epochs = epochs
		emb, filt, _ := newModels(cfg, 4)
		if err := FitStages13(context.Background(), kc, cfg, emb, filt, ds.Events, 5); err != nil {
			t.Fatal(err)
		}
		got, w := flat(filt), want[epochs]
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(w[i]) {
				t.Fatalf("epochs %d: filter parameter %d is %v, reference %v", epochs, i, got[i], w[i])
			}
		}
	}
}
