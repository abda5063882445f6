package pipeline

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/detector"
	"repro/internal/embed"
	"repro/internal/filter"
	"repro/internal/ignn"
	"repro/internal/kernels"
	"repro/internal/knnsearch"
	"repro/internal/rng"
)

func smallDataset(t *testing.T, events int) (*detector.Dataset, Config) {
	t.Helper()
	spec := detector.Ex3Like(0.04)
	spec.NumEvents = events
	ds := detector.Generate(spec, 21)
	cfg := DefaultConfig(spec)
	cfg.GNN.Hidden = 16
	cfg.GNN.Steps = 2
	return ds, cfg
}

// newModels builds the three stage models the way recon does: one
// split of rng.New(seed) each, in stage order.
func newModels(cfg Config, seed uint64) (*embed.Embedder, *filter.EdgeFilter, *ignn.Model) {
	r := rng.New(seed)
	return embed.New(cfg.Embed, r.Split()), filter.New(cfg.Filter, r.Split()), ignn.New(cfg.GNN, r.Split())
}

func TestTruthLevelGraph(t *testing.T) {
	ds, cfg := smallDataset(t, 1)
	ev := ds.Events[0]
	eg := TruthLevelGraph(cfg.Spec, ev, 1.5, 7)
	if eg.NumVertices() != ev.NumHits() {
		t.Fatalf("graph has %d vertices for %d hits", eg.NumVertices(), ev.NumHits())
	}
	if eg.NumEdges() <= len(ev.TruthSrc) {
		t.Fatal("no fake edges were added")
	}
	eff, purity := eg.GraphQuality()
	if eff != 1.0 {
		t.Fatalf("truth-level graph efficiency %v, want 1", eff)
	}
	if purity <= 0.2 || purity >= 1.0 {
		t.Fatalf("purity %v outside (0.2, 1)", purity)
	}
	if eg.Y.Rows() != eg.NumEdges() || len(eg.Label) != eg.NumEdges() {
		t.Fatal("edge feature/label sizes inconsistent")
	}
	// The graph is TruthLevelEdges assembled: same seed, same edges.
	src, dst := TruthLevelEdges(ev, 1.5, 7)
	if !reflect.DeepEqual(src, eg.G.Src) || !reflect.DeepEqual(dst, eg.G.Dst) {
		t.Fatal("TruthLevelGraph and TruthLevelEdges disagree under one seed")
	}
	if other, _ := TruthLevelEdges(ev, 1.5, 8); reflect.DeepEqual(src, other) {
		t.Fatal("the seed does not reach the fake edges")
	}
}

func TestStages13ImproveGraphQuality(t *testing.T) {
	ds, cfg := smallDataset(t, 3)
	cfg.Filter.Epochs = 6
	emb, filt, _ := newModels(cfg, 2)
	train, _, _ := ds.Split(0.7, 0.15)

	kc := kernels.Context{}
	if err := FitStages13(context.Background(), kc, cfg, emb, filt, train, 3); err != nil {
		t.Fatal(err)
	}
	ev := ds.Events[len(ds.Events)-1] // held-out event
	src, dst := knnsearch.BuildRadiusGraphCtx(kc, emb.EmbedCtx(kc, nil, ev.Features), cfg.Radius, cfg.MaxDegree)
	keep := filt.KeepCtx(kc, nil, ev.Features, detector.EdgeFeatures(cfg.Spec, ev, src, dst), src, dst)
	var fsrc, fdst []int
	for k := range src {
		if keep[k] {
			fsrc = append(fsrc, src[k])
			fdst = append(fdst, dst[k])
		}
	}
	eg := AssembleGraph(cfg.Spec, ev, fsrc, fdst)
	eff, purity := eg.GraphQuality()
	if eff < 0.5 {
		t.Fatalf("trained stage 1-3 edge efficiency %v too low", eff)
	}
	if purity < 0.1 {
		t.Fatalf("trained stage 1-3 purity %v too low", purity)
	}
	t.Logf("stage 1-3: efficiency=%.3f purity=%.3f edges=%d", eff, purity, eg.NumEdges())
}

func TestTrainStages13EmptyInput(t *testing.T) {
	_, cfg := smallDataset(t, 1)
	emb, filt, _ := newModels(cfg, 6)
	if err := FitStages13(context.Background(), kernels.Context{}, cfg, emb, filt, nil, 1); err == nil {
		t.Fatal("expected error on empty training set")
	}
}

func TestDefaultConfigFollowsSpec(t *testing.T) {
	spec := detector.CTDLike(0.001)
	cfg := DefaultConfig(spec)
	if cfg.GNN.NodeFeatures != 14 || cfg.GNN.EdgeFeatures != 8 {
		t.Fatalf("GNN feature widths %d/%d", cfg.GNN.NodeFeatures, cfg.GNN.EdgeFeatures)
	}
	if cfg.Filter.HiddenLayers != 3 {
		t.Fatalf("filter layers %d, want Table I's 3", cfg.Filter.HiddenLayers)
	}
}
