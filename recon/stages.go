package recon

import (
	"context"

	"repro/internal/detector"
	"repro/internal/embed"
	"repro/internal/filter"
	"repro/internal/fp"
	"repro/internal/graph"
	"repro/internal/ignn"
	"repro/internal/kernels"
	"repro/internal/knnsearch"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// The stage adapters are generic over the element type T the
// stage forwards run in, and are instantiated once per Reconstructor:
// at float64 over the stage models themselves, whose inference views
// alias the parameters (so Fit and LoadCheckpoint need no refresh), at
// float32 over the snapshot syncInference rebuilds — float32 copies of
// the weights at Float32, and at Int8 float32 copies of the weights
// rounded to the int8 grid a v4 checkpoint stores: int8 is a storage
// format, dequantized once, served by the same float32 kernels. Event
// and edge features (float64 at the detector boundary) reach T through
// convert, an identity at float64; scores and thresholds stay float64,
// so the decision logic and the track extractor are the same at every
// precision. None of the adapters builds an autograd tape.
//
// They read their intra-op worker budget out of ctx (kernels.From): the
// Reconstructor installs its configured budget on serial entry points
// and the Engine installs each worker's share, so wrapped stages see
// only the standard context.Context signature while the built-in
// kernels compose with worker-level parallelism.

// forwards holds the forward pass of the three learned stages at
// element type T. At Float64 it holds the models' parameter-aliasing
// Inference[float64] views; at Float32 and Int8 the Inference[float32]
// snapshots syncInference builds; int8 export calibration builds one
// over recording instances.
type forwards[T fp.Float] struct {
	embed  *embed.Inference[T]
	filter *filter.Inference[T]
	gnn    *ignn.Inference[T]
}

// newForwards returns the forwards of the three models at element type T.
func newForwards[T fp.Float](e *embed.Embedder, f *filter.EdgeFilter, m *ignn.Model) forwards[T] {
	return forwards[T]{embed.NewInference[T](e), filter.NewInference[T](f), ignn.NewInference[T](m)}
}

// convert returns m at element type D: m itself when that is its type
// already (Float64 stages read features and hand back embeddings
// without a copy), an arena-backed conversion otherwise.
func convert[D, S fp.Float](a *Arena, m *tensor.Matrix[S]) *tensor.Matrix[D] {
	if same, ok := any(m).(*tensor.Matrix[D]); ok {
		return same
	}
	return tensor.ConvertFrom[D](a, m)
}

// mlpEmbedder adapts the stage-1 metric-learning MLP. The stage
// interface returns a float64 matrix, so a float32 embedding widens
// (exactly) on the way out.
type mlpEmbedder[T fp.Float] struct {
	fw *forwards[T]
}

func (e mlpEmbedder[T]) Embed(ctx context.Context, a *Arena, ev *Event) (*Matrix, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	emb := e.fw.embed.EmbedCtx(kernels.From(ctx), a, convert[T](a, ev.Features))
	return convert[float64](a, emb), nil
}

// radiusBuilder adapts stage 2: fixed-radius neighbors in embedding
// space, capped per-vertex degree, searched in T. Narrowing a widened
// float32 embedding back is exact, so the reduced-precision search sees
// the bits the embedder produced.
type radiusBuilder[T fp.Float] struct {
	radius    float64
	maxDegree int
}

func (b radiusBuilder[T]) BuildEdges(ctx context.Context, a *Arena, ev *Event, embedFn func() (*Matrix, error)) (src, dst []int, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	embedded, err := embedFn()
	if err != nil {
		return nil, nil, err
	}
	src, dst = knnsearch.BuildRadiusGraphCtx(kernels.From(ctx), convert[T](a, embedded), b.radius, b.maxDegree)
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
	src, dst = pipeline.TruthLevelEdges(ev, b.fakeRatio, eventSeed(b.baseSeed, ev))
	return src, dst, nil
}

// mlpFilter adapts the stage-3 edge-filter MLP.
type mlpFilter[T fp.Float] struct {
	fw   *forwards[T]
	spec DetectorSpec
}

func (f mlpFilter[T]) FilterEdges(ctx context.Context, a *Arena, ev *Event, src, dst []int) (fsrc, fdst []int, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if len(src) == 0 {
		return nil, nil, nil
	}
	edgeFeat := detector.EdgeFeaturesWith(a, f.spec, ev, src, dst)
	keep := f.fw.filter.KeepCtx(kernels.From(ctx), a, convert[T](a, ev.Features), convert[T](a, edgeFeat), src, dst)
	fsrc, fdst = graph.SelectEdges(src, dst, keep)
	return fsrc, fdst, nil
}

// passFilter is stage 3 under truth-level graphs: it keeps every edge.
type passFilter struct{}

func (passFilter) FilterEdges(ctx context.Context, _ *Arena, _ *Event, src, dst []int) ([]int, []int, error) {
	return src, dst, ctx.Err()
}

// gnnClassifier adapts the stage-4 Interaction GNN.
type gnnClassifier[T fp.Float] struct {
	m  *ignn.Model
	fw *forwards[T]
}

func (c gnnClassifier[T]) ScoreEdges(ctx context.Context, a *Arena, eg *EventGraph) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.fw.gnn.EdgeScoresCtx(kernels.From(ctx), a, eg.G.Src, eg.G.Dst, convert[T](a, eg.X), convert[T](a, eg.Y)), nil
}

func (c gnnClassifier[T]) Params() []*Param { return c.m.Params() }

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
