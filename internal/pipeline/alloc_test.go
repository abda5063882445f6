package pipeline

import (
	"testing"

	"repro/internal/detector"
	"repro/internal/kernels"
	"repro/internal/knnsearch"
	"repro/internal/nn"
	"repro/internal/workspace"
)

// TestFilterTrainEpochAllocsWarm is the FitStages13 churn regression
// guard: the filter stage rebuilds radius graphs and edge features for
// every event every epoch, and that rebuild must recycle the arena's
// warm buffers rather than reallocating. With ~1000 hits across the
// fixture the pre-arena implementation allocated >1100 times per epoch
// (heap embedding tapes, per-node kd-tree allocations, heap edge
// features and labels); the arena-routed path measures ~280, dominated
// by edge-list growth. The bound has ~2x headroom over the measured
// value while still failing loudly if any of those paths regress to
// per-hit or per-edge heap allocation.
func TestFilterTrainEpochAllocsWarm(t *testing.T) {
	spec := detector.Ex3Like(0.04)
	spec.NumEvents = 2
	ds := detector.Generate(spec, 21)
	cfg := DefaultConfig(spec)
	emb, filt, _ := newModels(cfg, 3)

	opt := nn.NewAdam(cfg.Filter.LR)
	arena := workspace.NewArena()
	defer arena.Reset()
	kc := kernels.Context{}
	filterTrainEpoch(kc, arena, cfg, emb, filt, opt, ds.Events) // warm pools + optimizer state

	allocs := testing.AllocsPerRun(5, func() {
		filterTrainEpoch(kc, arena, cfg, emb, filt, opt, ds.Events)
	})
	totalHits := 0
	for _, ev := range ds.Events {
		totalHits += ev.NumHits()
	}
	if allocs > 600 {
		t.Fatalf("warm filter-training epoch allocated %.0f times (%d hits); budget 600 — "+
			"per-hit or per-edge heap allocation has crept back in", allocs, totalHits)
	}
}

// TestKDTreeBuildAllocs pins the slab optimization: building over n
// rows must not allocate per node.
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
	allocs := testing.AllocsPerRun(10, func() {
		src, dst := knnsearch.BuildRadiusGraphCtx(kernels.Context{}, embedded, cfg.Radius, cfg.MaxDegree)
		_, _ = src, dst
	})
	// Slab tree + edge-list growth: well under one alloc per hit.
	if allocs > float64(ev.NumHits())/4 {
		t.Fatalf("BuildRadiusGraphCtx allocated %.0f times for %d hits — kd-tree slab regressed",
			allocs, ev.NumHits())
	}
}
