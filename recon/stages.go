package recon

import (
	"context"

	"repro/internal/detector"
	"repro/internal/embed"
	"repro/internal/filter"
	"repro/internal/graph"
	"repro/internal/ignn"
	"repro/internal/kernels"
	"repro/internal/knnsearch"
	"repro/internal/rng"
)

// The default stage adapters read their intra-op worker budget out of
// ctx (kernels.From): the Reconstructor installs its configured budget
// on serial entry points and the Engine installs each worker's share,
// so custom stages see only the standard context.Context signature
// while the built-in kernels compose with worker-level parallelism.
//
// None of them builds an autograd tape: embed.Embedder.EmbedCtx,
// filter.EdgeFilter.KeepCtx and ignn.Model.EdgeScoresCtx run the
// models' Inference[float64] views, which alias the parameters (so Fit
// and LoadCheckpoint need no refresh here) and are gated bitwise
// against the tape forward in their packages' tests.

// mlpEmbedder adapts the stage-1 metric-learning MLP.
type mlpEmbedder struct{ m *embed.Embedder }

func (e mlpEmbedder) Embed(ctx context.Context, a *Arena, ev *Event) (*Matrix, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.m.EmbedCtx(kernels.From(ctx), a, ev.Features), nil
}

func (e mlpEmbedder) Params() []*Param { return e.m.Params() }

// radiusBuilder adapts stage 2: fixed-radius neighbors in embedding
// space, capped per-vertex degree.
type radiusBuilder struct {
	radius    float64
	maxDegree int
}

func (b radiusBuilder) BuildEdges(ctx context.Context, a *Arena, ev *Event, embedFn func() (*Matrix, error)) (src, dst []int, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	embedded, err := embedFn()
	if err != nil {
		return nil, nil, err
	}
	src, dst = knnsearch.BuildRadiusGraphCtx(kernels.From(ctx), embedded, b.radius, b.maxDegree)
	return src, dst, nil
}

// truthBuilder is the truth-level stage-2 variant: ground-truth edges
// plus fakeRatio random fakes per true edge. The fake-edge RNG is seeded
// from the event's own structure, so building the same event is
// deterministic regardless of processing order or worker count.
type truthBuilder struct {
	fakeRatio float64
	baseSeed  uint64
}

// eventSeed mixes the base seed with stable structural features of the
// event (splitmix64 finalizer), giving each event its own deterministic
// fake-edge stream independent of submission order.
func eventSeed(base uint64, ev *Event) uint64 {
	h := base ^ 0x9E3779B97F4A7C15
	h = (h ^ uint64(ev.NumHits())) * 0xBF58476D1CE4E5B9
	h = (h ^ uint64(len(ev.TruthSrc))) * 0x94D049BB133111EB
	if n := len(ev.TruthSrc); n > 0 {
		h ^= uint64(ev.TruthSrc[0])<<32 | uint64(ev.TruthDst[n-1])
	}
	h ^= h >> 31
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	return h
}

func (b truthBuilder) BuildEdges(ctx context.Context, a *Arena, ev *Event, _ func() (*Matrix, error)) (src, dst []int, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	r := rng.New(eventSeed(b.baseSeed, ev))
	src = append([]int(nil), ev.TruthSrc...)
	dst = append([]int(nil), ev.TruthDst...)
	n := ev.NumHits()
	nFake := int(float64(len(src)) * b.fakeRatio)
	for i := 0; i < nFake; i++ {
		p, q := r.Intn(n), r.Intn(n)
		if p == q || ev.IsTruthEdge(p, q) {
			continue
		}
		src = append(src, p)
		dst = append(dst, q)
	}
	return src, dst, nil
}

// mlpFilter adapts the stage-3 edge-filter MLP.
type mlpFilter struct {
	f    *filter.EdgeFilter
	spec DetectorSpec
}

func (f mlpFilter) FilterEdges(ctx context.Context, a *Arena, ev *Event, src, dst []int) (fsrc, fdst []int, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if len(src) == 0 {
		return nil, nil, nil
	}
	edgeFeat := detector.EdgeFeatures(f.spec, ev, src, dst)
	keep := f.f.KeepCtx(kernels.From(ctx), a, ev.Features, edgeFeat, src, dst)
	for k := range src {
		if keep[k] {
			fsrc = append(fsrc, src[k])
			fdst = append(fdst, dst[k])
		}
	}
	return fsrc, fdst, nil
}

func (f mlpFilter) Params() []*Param { return f.f.Params() }

// passFilter is the filter-skip ablation: stage 3 keeps every edge.
type passFilter struct{}

func (passFilter) FilterEdges(ctx context.Context, _ *Arena, _ *Event, src, dst []int) ([]int, []int, error) {
	return src, dst, ctx.Err()
}

// gnnClassifier adapts the stage-4 Interaction GNN.
type gnnClassifier struct{ m *ignn.Model }

func (c gnnClassifier) ScoreEdges(ctx context.Context, a *Arena, eg *EventGraph) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.m.EdgeScoresCtx(kernels.From(ctx), a, eg.G.Src, eg.G.Dst, eg.X, eg.Y), nil
}

func (c gnnClassifier) Params() []*Param { return c.m.Params() }

// ccExtractor is stage 5: connected components of the surviving edges,
// dropping candidates shorter than minTrackHits.
type ccExtractor struct{ minTrackHits int }

func (x ccExtractor) ExtractTracks(ctx context.Context, eg *EventGraph, keep []bool) ([][]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	final := eg.G.FilterEdges(keep)
	labels, count := final.ConnectedComponents()
	var tracks [][]int
	for _, c := range graph.ComponentMembers(labels, count) {
		if len(c) >= x.minTrackHits {
			tracks = append(tracks, c)
		}
	}
	return tracks, nil
}
