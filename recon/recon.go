// Package recon is the public API for Exa.TrkX track reconstruction.
// A Reconstructor runs the paper's five stages (Figure 1) in one fixed
// layout: the learned embedding, radius graph and edge filter (stages
// 1–3) or truth-level graphs in their place (WithTruthLevelGraphs),
// then the Interaction GNN or a WithEdgeClassifier stage (stage 4),
// then connected components (stage 5). The five stage interfaces —
// Embedder, GraphBuilder, EdgeFilter, EdgeClassifier, TrackExtractor —
// are the seam a StageWrapper (WithStageWrapper) wraps for fault
// injection and tracing.
//
// On top of the per-event Reconstructor, Engine executes reconstruction
// concurrently through one worker loop: each call runs its events on
// one pool whose workers live for that call, with one workspace arena
// pinned per worker. ReconstructBatch returns results bit-identical to
// serial execution, and ReconstructCoalesced merges concurrent calls
// into one pool run. Both take a context.Context and fast-fail with
// ErrOverloaded past the admission window; a WithRequestTimeout
// deadline starts at admission, and a fired deadline or cancellation is
// returned ahead of a per-event error.
//
// Quickstart:
//
//	spec := detectorSpec                      // e.g. detector.Ex3Like(0.05)
//	r, _ := recon.New(spec, recon.WithGNN(16, 3), recon.WithThreshold(0.5))
//	_ = r.Fit(ctx, trainEvents)
//	res, _ := r.Reconstruct(ctx, event)
//
//	eng, _ := recon.NewEngine(r, recon.WithWorkers(4))
//	results, _ := eng.ReconstructBatch(ctx, events)
//
// See API.md at the repository root for the full surface, the engine's
// ordering/admission/error semantics, and the cmd/serve HTTP front-end.
package recon

import (
	"context"

	"repro/internal/autograd"
	"repro/internal/detector"
	"repro/internal/pipeline"
	"repro/internal/tensor"
	"repro/internal/workspace"
)

// Aliases tying the recon surface to the repository's core types, so
// values flow freely between this package, the dataset generator, and
// the training stack without conversion.
type (
	// DetectorSpec describes a dataset family (layers, field, features).
	DetectorSpec = detector.Spec
	// Event is one collision event with hits, features, and truth.
	Event = detector.Event
	// EventGraph is a constructed event graph (stage 1–3 output), the
	// GNN stage's input.
	EventGraph = pipeline.EventGraph
	// Result is full-pipeline inference output with metrics.
	Result = pipeline.Result
	// Matrix is a dense row-major float64 matrix.
	Matrix = tensor.Dense
	// Arena hands out pooled scratch slices; stages allocate
	// intermediate activations from it so hot loops stay allocation-free.
	Arena = workspace.Arena
	// Param is one trainable parameter tensor.
	Param = autograd.Param
)

// Embedder is stage 1: map per-hit features into an embedding space
// where same-track hits land close together. The returned matrix may be
// arena-owned: it is valid only until the arena resets past it.
type Embedder interface {
	Embed(ctx context.Context, a *Arena, ev *Event) (*Matrix, error)
}

// GraphBuilder is stage 2: propose candidate edges for an event.
// Builders that work in embedding space call embed() for the stage-1
// output; builders that do not (e.g. truth-level graphs) skip it, and
// the embedding is never computed.
type GraphBuilder interface {
	BuildEdges(ctx context.Context, a *Arena, ev *Event, embed func() (*Matrix, error)) (src, dst []int, err error)
}

// EdgeFilter is stage 3: prune implausible candidate edges before the
// memory-intensive GNN stage ("Shrink Graph to GPU size" in the paper).
type EdgeFilter interface {
	FilterEdges(ctx context.Context, a *Arena, ev *Event, src, dst []int) (fsrc, fdst []int, err error)
}

// EdgeClassifier is stage 4: score each edge of the constructed graph
// in [0, 1]; scores at or above the decision threshold survive.
type EdgeClassifier interface {
	ScoreEdges(ctx context.Context, a *Arena, eg *EventGraph) ([]float64, error)
}

// TrackExtractor is stage 5: turn the surviving edges into track
// candidates (hit-index sets).
type TrackExtractor interface {
	ExtractTracks(ctx context.Context, eg *EventGraph, keep []bool) ([][]int, error)
}

// Parameterized is implemented by a WithEdgeClassifier stage with
// trainable parameters; checkpoints persist them in the GNN's place.
type Parameterized interface {
	Params() []*Param
}
