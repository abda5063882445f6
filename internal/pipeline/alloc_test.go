package pipeline

import (
	"context"
	"testing"

	"repro/internal/detector"
	"repro/internal/kernels"
	"repro/internal/knnsearch"
	"repro/internal/nn"
	"repro/internal/workspace"
)

// TestFilterTrainEpochAllocsWarm is the FitStages13 churn regression
// guard: a warm filter epoch over the cached candidate graphs takes the
// step's activations and tape from the arena, so what is left is ~45
// allocations per optimizer step (tape nodes and optimizer bookkeeping),
// whatever the hit or edge count. The budget is ~2x that per graph.
func TestFilterTrainEpochAllocsWarm(t *testing.T) {
	spec := detector.Ex3Like(0.04)
	spec.NumEvents = 2
	ds := detector.Generate(spec, 21)
	cfg := DefaultConfig(spec)
	emb, filt, _ := newModels(cfg, 3)

	kc := kernels.Context{}
	graphs, err := candidateGraphs(context.Background(), kc, cfg, emb, ds.Events)
	if err != nil {
		t.Fatal(err)
	}
	opt := nn.NewAdam(cfg.Filter.LR)
	arena := workspace.NewArena()
	defer arena.Reset()
	filterTrainEpoch(kc, arena, filt, opt, graphs) // warm pools + optimizer state

	allocs := testing.AllocsPerRun(5, func() {
		filterTrainEpoch(kc, arena, filt, opt, graphs)
	})
	edges := 0
	for _, eg := range graphs {
		edges += eg.NumEdges()
	}
	if budget := 100.0 * float64(len(graphs)); allocs > budget {
		t.Fatalf("warm filter-training epoch allocated %.0f times (%d graphs, %d edges); budget %.0f — "+
			"per-edge heap allocation has crept back in", allocs, len(graphs), edges, budget)
	}
}

// TestKDTreeBuildAllocs pins the pooled radius search: with warm pools,
// a one-worker BuildRadiusGraphCtx allocates only the src and dst it
// returns. The index, the per-query neighbor buffer and the edge buffer
// all come from the workspace pools, so the bound does not grow with the
// hit or edge count.
func TestKDTreeBuildAllocs(t *testing.T) {
	spec := detector.Ex3Like(0.04)
	spec.NumEvents = 1
	ds := detector.Generate(spec, 22)
	cfg := DefaultConfig(spec)
	emb, _, _ := newModels(cfg, 3)
	ev := ds.Events[0]

	arena := workspace.NewArena()
	defer arena.Reset()
	embedded := emb.EmbedCtx(kernels.Context{}, arena, ev.Features)
	kc := kernels.Context{Workers: 1}
	src, _ := knnsearch.BuildRadiusGraphCtx(kc, embedded, cfg.Radius, cfg.MaxDegree) // warm the pools
	if len(src) == 0 {
		t.Fatal("fixture produced no edges")
	}
	allocs := testing.AllocsPerRun(10, func() {
		src, dst := knnsearch.BuildRadiusGraphCtx(kc, embedded, cfg.Radius, cfg.MaxDegree)
		_, _ = src, dst
	})
	if allocs > 2 {
		t.Fatalf("warm one-worker BuildRadiusGraphCtx allocated %.0f times (%d hits, %d edges); "+
			"budget 2, the returned src and dst", allocs, ev.NumHits(), len(src))
	}
}
