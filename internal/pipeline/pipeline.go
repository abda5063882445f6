// Package pipeline holds what the reconstruction front-end (recon), the
// trainer (dtrain) and the experiment harnesses share of the five-stage
// Exa.TrkX pipeline (Figure 1 of the paper): the hyperparameters, the
// event-graph and result types, truth-level graph construction, and the
// fit procedure of stages 1–3 over their models. The pipeline itself —
// embed, radius graph, filter, Interaction GNN, connected components —
// is composed in recon, which trains the GNN stage on dtrain.
package pipeline

import (
	"context"
	"fmt"

	"repro/internal/detector"
	"repro/internal/embed"
	"repro/internal/filter"
	"repro/internal/graph"
	"repro/internal/ignn"
	"repro/internal/kernels"
	"repro/internal/knnsearch"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/workspace"
)

// Config collects all pipeline hyperparameters.
type Config struct {
	Spec detector.Spec

	Embed  embed.Config
	Filter filter.Config
	GNN    ignn.Config

	Radius    float64 // fixed-radius graph construction distance
	MaxDegree int     // per-vertex neighbor cap during construction

	GNNThreshold float64 // edge score needed to survive stage 4
	MinTrackHits int     // track candidates below this are dropped
}

// DefaultConfig returns a laptop-scale configuration tuned for the
// synthetic datasets. The structural hyperparameters follow the paper
// (8-layer GNN, hidden 64) scaled down via the hidden/steps fields which
// experiments override as needed.
func DefaultConfig(spec detector.Spec) Config {
	return Config{
		Spec:   spec,
		Embed:  embed.DefaultConfig(spec),
		Filter: filter.DefaultConfig(spec.VertexFeatures, spec.EdgeFeatures, spec.MLPLayers),
		GNN: ignn.Config{
			NodeFeatures: spec.VertexFeatures,
			EdgeFeatures: spec.EdgeFeatures,
			Hidden:       32,
			Steps:        4,
		},
		Radius:       0.35,
		MaxDegree:    12,
		GNNThreshold: 0.5,
		MinTrackHits: 3,
	}
}

// EventGraph is the constructed, filtered graph for one event — the input
// the GNN stage trains and evaluates on.
type EventGraph struct {
	Event *detector.Event
	G     *graph.Graph  // filtered event graph (stage 1–3 output)
	X     *tensor.Dense // node features (n × nodeFeatures)
	Y     *tensor.Dense // edge features (m × edgeFeatures)
	Label []float64     // per-edge truth label
}

// NumVertices returns the vertex count.
func (eg *EventGraph) NumVertices() int { return eg.G.N }

// NumEdges returns the edge count.
func (eg *EventGraph) NumEdges() int { return eg.G.NumEdges() }

// TruthLevelEdges returns an event's truth edges plus fakeRatio random
// fake edges per true edge, drawn from rng.New(seed).
func TruthLevelEdges(ev *detector.Event, fakeRatio float64, seed uint64) (src, dst []int) {
	r := rng.New(seed)
	src = append([]int(nil), ev.TruthSrc...)
	dst = append([]int(nil), ev.TruthDst...)
	n := ev.NumHits()
	nFake := int(float64(len(src)) * fakeRatio)
	for i := 0; i < nFake; i++ {
		a, b := r.Intn(n), r.Intn(n)
		if a == b || ev.IsTruthEdge(a, b) {
			continue
		}
		src = append(src, a)
		dst = append(dst, b)
	}
	return src, dst
}

// TruthLevelGraph constructs the event graph from TruthLevelEdges — a
// shortcut used by GNN-stage experiments (Figures 3 and 4) to decouple
// GNN training quality from upstream stage tuning, while preserving
// realistic vertex/edge ratios.
func TruthLevelGraph(spec detector.Spec, ev *detector.Event, fakeRatio float64, seed uint64) *EventGraph {
	src, dst := TruthLevelEdges(ev, fakeRatio, seed)
	return AssembleGraph(spec, ev, src, dst)
}

// AssembleGraph packages an edge list into an EventGraph with truth
// labels and edge features — the shared stage-2/3 output format consumed
// by the GNN stage. The result is heap-owned.
func AssembleGraph(spec detector.Spec, ev *detector.Event, src, dst []int) *EventGraph {
	labels := make([]float64, len(src))
	for k := range src {
		if ev.IsTruthEdge(src[k], dst[k]) {
			labels[k] = 1
		}
	}
	return &EventGraph{
		Event: ev,
		G:     graph.New(ev.NumHits(), src, dst),
		X:     ev.Features,
		Y:     detector.EdgeFeatures(spec, ev, src, dst),
		Label: labels,
	}
}

// GraphQuality reports stage 1–3 output quality: the fraction of truth
// edges present in the constructed graph (edgewise efficiency) and the
// fraction of constructed edges that are true (purity).
func (eg *EventGraph) GraphQuality() (efficiency, purity float64) {
	trueKept := 0.0
	for _, l := range eg.Label {
		trueKept += l
	}
	if len(eg.Event.TruthSrc) > 0 {
		efficiency = trueKept / float64(len(eg.Event.TruthSrc))
	}
	if len(eg.Label) > 0 {
		purity = trueKept / float64(len(eg.Label))
	}
	return efficiency, purity
}

// Result is the output of full-pipeline inference on one event.
type Result struct {
	Tracks     [][]int // hit-index sets, one per candidate
	EdgeCounts metrics.BinaryCounts
	Match      metrics.TrackMatch
}

// FitStages13 trains the embedding and filter stages on the training
// events under the worker budget kc, checking the context between
// events and epochs. The filter trains on radius graphs built from the
// trained embedder's output, mirroring the staged Exa.TrkX training
// procedure. The embedder is frozen once trained, so each training
// event's candidate graph (embedding, radius edges, edge features and
// labels) is built once, and every filter epoch reuses it; the filter
// step's activations live in one workspace arena checkpointed around
// the step.
func FitStages13(ctx context.Context, kc kernels.Context, cfg Config, e *embed.Embedder, f *filter.EdgeFilter, train []*detector.Event, seed uint64) error {
	if len(train) == 0 {
		return fmt.Errorf("pipeline: no training events")
	}
	if _, err := e.TrainContext(ctx, kc, train, seed); err != nil {
		return err
	}
	graphs, err := candidateGraphs(ctx, kc, cfg, e, train)
	if err != nil {
		return err
	}

	opt := nn.NewAdam(cfg.Filter.LR)
	arena := workspace.NewArena()
	defer arena.Reset()
	for epoch := 0; epoch < cfg.Filter.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		filterTrainEpoch(kc, arena, f, opt, graphs)
	}
	return nil
}

// candidateGraphs builds each event's stage-2 graph in the trained
// embedding space, labelled, with its edge features: the filter's
// training set. An event without candidate edges is left out. The
// embedding is borrowed from an arena and released once its radius
// search is done; the graphs are heap-owned.
func candidateGraphs(ctx context.Context, kc kernels.Context, cfg Config, e *embed.Embedder, events []*detector.Event) ([]*EventGraph, error) {
	inf := embed.NewInference[float64](e)
	arena := workspace.NewArena()
	defer arena.Reset()
	graphs := make([]*EventGraph, 0, len(events))
	for _, ev := range events {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		mark := arena.Checkpoint()
		src, dst := knnsearch.BuildRadiusGraphCtx(kc, inf.EmbedCtx(kc, arena, ev.Features), cfg.Radius, cfg.MaxDegree)
		arena.ResetTo(mark)
		if len(src) > 0 {
			graphs = append(graphs, AssembleGraph(cfg.Spec, ev, src, dst))
		}
	}
	return graphs, nil
}

// filterTrainEpoch runs one filter-training pass, one optimizer step
// per graph.
func filterTrainEpoch(kc kernels.Context, arena *workspace.Arena, f *filter.EdgeFilter, opt nn.Optimizer, graphs []*EventGraph) {
	for _, eg := range graphs {
		f.TrainStepWith(kc, arena, eg.X, eg.Y, eg.G.Src, eg.G.Dst, eg.Label, opt)
	}
}
