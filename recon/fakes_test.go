package recon_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/recon"
)

// replace is the test StageWrapper that puts the fake stages it holds
// in place of the resolved ones and leaves every other stage as it is.
// It is the one way the fakes below reach a Reconstructor, the seam
// internal/faultinject and the benchmark tracer use too.
type replace struct {
	embedder  recon.Embedder
	extractor recon.TrackExtractor
}

func (w replace) WrapEmbedder(e recon.Embedder) recon.Embedder {
	if w.embedder != nil {
		return w.embedder
	}
	return e
}

func (replace) WrapGraphBuilder(b recon.GraphBuilder) recon.GraphBuilder       { return b }
func (replace) WrapEdgeFilter(f recon.EdgeFilter) recon.EdgeFilter             { return f }
func (replace) WrapEdgeClassifier(c recon.EdgeClassifier) recon.EdgeClassifier { return c }

func (w replace) WrapTrackExtractor(x recon.TrackExtractor) recon.TrackExtractor {
	if w.extractor != nil {
		return w.extractor
	}
	return x
}

// withExtractor runs x as stage 5.
func withExtractor(x recon.TrackExtractor) recon.Option {
	return recon.WithStageWrapper(replace{extractor: x})
}

// withEmbedder runs e as stage 1.
func withEmbedder(e recon.Embedder) recon.Option {
	return recon.WithStageWrapper(replace{embedder: e})
}

// slowExtractor delays stage 5 so cancellation can land mid-batch.
type slowExtractor struct{ delay time.Duration }

func (s slowExtractor) ExtractTracks(ctx context.Context, eg *recon.EventGraph, keep []bool) ([][]int, error) {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return nil, nil
}

// gateExtractor blocks inside stage 5 until released, signalling entry —
// the tool for holding the admission window open at a known point.
type gateExtractor struct {
	entered chan struct{} // buffered; one signal per call
	release chan struct{} // closed to let all calls finish
}

func newGate() gateExtractor {
	return gateExtractor{entered: make(chan struct{}, 64), release: make(chan struct{})}
}

func (g gateExtractor) ExtractTracks(ctx context.Context, eg *recon.EventGraph, keep []bool) ([][]int, error) {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	select {
	case <-g.release:
		return nil, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// slowOnExtractor delays stage 5 for one event only, until its context
// ends.
type slowOnExtractor struct{ slow *recon.Event }

func (s slowOnExtractor) ExtractTracks(ctx context.Context, eg *recon.EventGraph, keep []bool) ([][]int, error) {
	if eg.Event != s.slow {
		return nil, nil
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// failThenBlockExtractor fails its first call at once and blocks every
// later call until its context ends.
type failThenBlockExtractor struct{ calls *atomic.Int64 }

var errFirstEvent = errors.New("first event fails")

func (f failThenBlockExtractor) ExtractTracks(ctx context.Context, eg *recon.EventGraph, keep []bool) ([][]int, error) {
	if f.calls.Add(1) == 1 {
		return nil, errFirstEvent
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// singleTrack is a stage 5 that puts every hit in one candidate.
type singleTrack struct{}

func (singleTrack) ExtractTracks(ctx context.Context, eg *recon.EventGraph, keep []bool) ([][]int, error) {
	track := make([]int, eg.NumVertices())
	for i := range track {
		track[i] = i
	}
	return [][]int{track}, ctx.Err()
}

// budgetEmbedder is a stage 1 that records the kernel budget its
// context carries on each call. Its embedding puts every
// hit on a line, so the radius graph still has edges to classify.
type budgetEmbedder struct {
	mu   sync.Mutex
	seen []int
}

func (e *budgetEmbedder) Embed(ctx context.Context, a *recon.Arena, ev *recon.Event) (*recon.Matrix, error) {
	e.mu.Lock()
	e.seen = append(e.seen, kernels.From(ctx).Cap())
	e.mu.Unlock()
	emb := tensor.NewFrom(a, ev.NumHits(), 2)
	for i := 0; i < ev.NumHits(); i++ {
		emb.Set(i, 0, float64(i)*0.01)
	}
	return emb, ctx.Err()
}
