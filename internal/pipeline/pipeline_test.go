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

// filterCandidates fits stages 1-3 at cfg on train, then returns, over
// the held-out events, the candidate graphs stage 2 builds and the
// graphs stage 3 keeps of them.
func filterCandidates(t *testing.T, cfg Config, train, held []*detector.Event) (cands, kept []*EventGraph) {
	t.Helper()
	emb, filt, _ := newModels(cfg, 2)
	kc := kernels.Context{}
	if err := FitStages13(context.Background(), kc, cfg, emb, filt, train, 3); err != nil {
		t.Fatal(err)
	}
	for _, ev := range held {
		src, dst := knnsearch.BuildRadiusGraphCtx(kc, embed.NewInference[float64](emb).EmbedCtx(kc, nil, ev.Features), cfg.Radius, cfg.MaxDegree)
		cand := AssembleGraph(cfg.Spec, ev, src, dst)
		keep := filter.NewInference[float64](filt).KeepCtx(kc, nil, cand.X, cand.Y, src, dst)
		var fsrc, fdst []int
		for k := range src {
			if keep[k] {
				fsrc = append(fsrc, src[k])
				fdst = append(fdst, dst[k])
			}
		}
		cands = append(cands, cand)
		kept = append(kept, AssembleGraph(cfg.Spec, ev, fsrc, fdst))
	}
	return cands, kept
}

func TestStages13ImproveGraphQuality(t *testing.T) {
	ds, cfg := smallDataset(t, 3)
	train, _, _ := ds.Split(0.7, 0.15)
	held := ds.Events[len(ds.Events)-1]
	cands, kept := filterCandidates(t, cfg, train, []*detector.Event{held})
	_, candPurity := cands[0].GraphQuality()
	eff, purity := kept[0].GraphQuality()
	if eff < 0.5 {
		t.Fatalf("trained stage 1-3 edge efficiency %v too low", eff)
	}
	// Stage 3 earns its place only by pruning: the graph it hands the GNN
	// must be purer than the candidates it was given.
	if purity <= candPurity {
		t.Fatalf("filtered purity %.3f not above the candidate graph's %.3f", purity, candPurity)
	}
	t.Logf("stage 1-3: efficiency=%.3f purity=%.3f (candidates %.3f) edges=%d of %d",
		eff, purity, candPurity, kept[0].NumEdges(), cands[0].NumEdges())
}

// TestDefaultFilterPrunes is the stage-3 property at the default config:
// fitted on events the size the benchmark fixtures train on, the filter
// passes at most 70% of held-out candidate edges and keeps at least
// 99.5% of the true ones.
func TestDefaultFilterPrunes(t *testing.T) {
	spec := detector.Ex3Like(0.05)
	spec.NumEvents = 6
	train := detector.Generate(spec, 31).Events
	spec.NumEvents = 8
	held := detector.Generate(spec, 32).Events
	cands, kept := filterCandidates(t, DefaultConfig(spec), train, held)

	var nCand, nKept, trueCand, trueKept float64
	for i := range cands {
		nCand += float64(cands[i].NumEdges())
		nKept += float64(kept[i].NumEdges())
		for _, l := range cands[i].Label {
			trueCand += l
		}
		for _, l := range kept[i].Label {
			trueKept += l
		}
	}
	share, recall := nKept/nCand, trueKept/trueCand
	t.Logf("kept %.0f of %.0f candidates (%.3f), %.0f of %.0f true (%.4f)", nKept, nCand, share, trueKept, trueCand, recall)
	if share > 0.70 {
		t.Errorf("filter keeps %.3f of candidates, want ≤ 0.70", share)
	}
	if recall < 0.995 {
		t.Errorf("filter keeps %.4f of true candidates, want ≥ 0.995", recall)
	}
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
