package recon

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/autograd"
	"repro/internal/detector"
	"repro/internal/embed"
	"repro/internal/filter"
	"repro/internal/fp"
	"repro/internal/graph"
	"repro/internal/ignn"
	"repro/internal/kernels"
	"repro/internal/knnsearch"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/workspace"
)

// referenceReconstruct is the specification the stage decomposition is
// held to: the five stages in a straight line at element type T — no
// stage interfaces, no arena, no options — over the given forwards.
func referenceReconstruct[T fp.Float](cfg pipeline.Config, fw forwards[T], ev *Event) *Result {
	kc := kernels.Context{}
	feat := tensor.ConvertFrom[T](nil, ev.Features)
	src, dst := knnsearch.BuildRadiusGraphCtx(kc, fw.embed.EmbedCtx(kc, nil, feat), cfg.Radius, cfg.MaxDegree)
	var fsrc, fdst []int
	if len(src) > 0 {
		edgeFeat := tensor.ConvertFrom[T](nil, detector.EdgeFeatures(cfg.Spec, ev, src, dst))
		for k, keep := range fw.filter.KeepCtx(kc, nil, feat, edgeFeat, src, dst) {
			if keep {
				fsrc, fdst = append(fsrc, src[k]), append(fdst, dst[k])
			}
		}
	}
	eg := pipeline.AssembleGraph(cfg.Spec, ev, fsrc, fdst)
	res := &Result{}
	keep := make([]bool, eg.NumEdges())
	if eg.NumEdges() > 0 {
		x, y := tensor.ConvertFrom[T](nil, eg.X), tensor.ConvertFrom[T](nil, eg.Y)
		for k, s := range fw.gnn.EdgeScoresCtx(kc, nil, eg.G.Src, eg.G.Dst, x, y) {
			keep[k] = s >= cfg.GNNThreshold
			res.EdgeCounts.Add(keep[k], eg.Label[k] > 0.5)
		}
	}
	labels, count := eg.G.FilterEdges(keep).ConnectedComponents()
	for _, c := range graph.ComponentMembers(labels, count) {
		if len(c) >= cfg.MinTrackHits {
			res.Tracks = append(res.Tracks, c)
		}
	}
	hitParticle := make([]int, ev.NumHits())
	perParticle := make(map[int]int)
	for i, h := range ev.Hits {
		hitParticle[i] = h.Particle
		if h.Particle >= 0 {
			perParticle[h.Particle]++
		}
	}
	trueHits := make(map[int]int)
	for p, n := range perParticle {
		if n >= cfg.MinTrackHits {
			trueHits[p] = n
		}
	}
	res.Match = metrics.MatchTracks(res.Tracks, hitParticle, trueHits, cfg.MinTrackHits)
	return res
}

// TestReconstructMatchesStraightLineReference: at every precision the
// Reconstructor — generic adapters, arena, stage interfaces — returns
// exactly what the straight-line reference computes from the same
// weights, after a short Fit so the filter prunes and the GNN decides.
func TestReconstructMatchesStraightLineReference(t *testing.T) {
	spec := detector.Ex3Like(0.02)
	spec.NumEvents = 5
	events := detector.Generate(spec, 42).Events
	train, test := events[:2], events[2:]

	for _, prec := range []Precision{Float64, Float32, Int8} {
		r, err := New(spec, WithSeed(5), WithGNN(8, 2), WithGNNTraining(3, 3e-3, 2.0), WithPrecision(prec))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Fit(context.Background(), train); err != nil {
			t.Fatal(err)
		}
		var reference func(ev *Event) *Result
		switch prec {
		case Float64:
			fw := forwards[float64]{embed.NewInference[float64](r.embedModel), filter.NewInference[float64](r.filterModel), ignn.NewInference[float64](r.gnnModel)}
			reference = func(ev *Event) *Result { return referenceReconstruct(r.cfg, fw, ev) }
		case Float32:
			fw := forwards[float32]{embed.NewInference[float32](r.embedModel), filter.NewInference[float32](r.filterModel), ignn.NewInference[float32](r.gnnModel)}
			reference = func(ev *Event) *Result { return referenceReconstruct(r.cfg, fw, ev) }
		case Int8:
			emb, filt, gnn := r.int8Models()
			fw := forwards[float32]{embed.NewInference[float32](emb), filter.NewInference[float32](filt), ignn.NewInference[float32](gnn)}
			reference = func(ev *Event) *Result { return referenceReconstruct(r.cfg, fw, ev) }
		}
		edges := 0
		for i, ev := range test {
			got, err := r.Reconstruct(context.Background(), ev)
			if err != nil {
				t.Fatalf("%v event %d: %v", prec, i, err)
			}
			want := reference(ev)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v event %d: Reconstruct diverges from the straight-line reference:\n got %+v\nwant %+v", prec, i, got, want)
			}
			c := want.EdgeCounts
			edges += c.TP + c.FP + c.TN + c.FN
		}
		if edges == 0 {
			t.Fatalf("%v: no edge reached the GNN on any test event; the comparison is vacuous", prec)
		}
	}
}

// TestFitMatchesStraightLineReference: Fit's GNN stage leaves exactly
// the weights of a straight-line full-graph Adam loop from the same
// starting values: per epoch, per graph with edges in BuildGraph order,
// one step on the summed loss's gradient divided by the edge count.
func TestFitMatchesStraightLineReference(t *testing.T) {
	spec := detector.Ex3Like(0.02)
	spec.NumEvents = 3
	events := detector.Generate(spec, 47).Events
	const epochs, lr, posWeight = 3, 3e-3, 2.0
	r, err := New(spec, WithSeed(5), WithGNN(8, 2), WithGNNTraining(epochs, lr, posWeight), WithTruthLevelGraphs(1.5))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Truth-level graphs do not depend on the weights: build them once.
	graphs := make([]*EventGraph, len(events))
	for i, ev := range events {
		if graphs[i], err = r.BuildGraph(ctx, ev); err != nil {
			t.Fatal(err)
		}
	}
	ref := ignn.New(r.cfg.GNN, rng.New(0))
	params := ref.Params()
	for i, p := range r.gnnModel.Params() {
		copy(params[i].Value.Data(), p.Value.Data())
	}
	if err := r.Fit(ctx, events); err != nil {
		t.Fatal(err)
	}

	opt := nn.NewAdam(lr)
	for epoch := 0; epoch < epochs; epoch++ {
		for _, eg := range graphs {
			if eg.NumEdges() == 0 {
				continue
			}
			nn.ZeroGrads(params)
			tape := autograd.NewTape()
			loss := tape.BCEWithLogitsSum(ref.Forward(tape, eg.G.Src, eg.G.Dst, eg.X, eg.Y), eg.Label, posWeight)
			tape.Backward(loss)
			inv := 1 / float64(eg.NumEdges())
			for _, p := range params {
				g := p.Grad.Data()
				for i := range g {
					g[i] *= inv
				}
			}
			opt.Step(params)
		}
	}

	for i, p := range r.gnnModel.Params() {
		want := params[i].Value.Data()
		for j, v := range p.Value.Data() {
			if math.Float64bits(v) != math.Float64bits(want[j]) {
				t.Fatalf("parameter %q[%d]: Fit left %v, the straight-line loop %v", p.Name, j, v, want[j])
			}
		}
	}
}

// firstHits returns the event cut down to its first n hits, keeping the
// truth edges that survive the cut.
func firstHits(spec DetectorSpec, ev *Event, n int) *Event {
	small := &Event{Hits: ev.Hits[:n], Features: tensor.New(n, spec.VertexFeatures)}
	for i := 0; i < n; i++ {
		copy(small.Features.Row(i), ev.Features.Row(i))
	}
	for k := range ev.TruthSrc {
		if ev.TruthSrc[k] < n && ev.TruthDst[k] < n {
			small.TruthSrc = append(small.TruthSrc, ev.TruthSrc[k])
			small.TruthDst = append(small.TruthDst, ev.TruthDst[k])
		}
	}
	return small
}

// TestDegenerateEventsAtEveryPrecision: events of zero, one and two
// hits pass through the serial entry point and through a 2-worker
// engine batch at every precision, with learned and with truth-level
// stages 1–3: no panic, no error, and the normal event sharing the
// batch reconstructs as it does alone.
func TestDegenerateEventsAtEveryPrecision(t *testing.T) {
	spec := detector.Ex3Like(0.02)
	spec.NumEvents = 1
	normal := detector.Generate(spec, 17).Events[0]
	ctx := context.Background()

	for _, prec := range []Precision{Float64, Float32, Int8} {
		for _, truth := range []bool{false, true} {
			opts := []Option{WithSeed(3), WithGNN(8, 2), WithPrecision(prec)}
			if truth {
				opts = append(opts, WithTruthLevelGraphs(1.0))
			}
			r, err := New(spec, opts...)
			if err != nil {
				t.Fatal(err)
			}
			alone, err := r.Reconstruct(ctx, normal)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := NewEngine(r, WithWorkers(2))
			if err != nil {
				t.Fatal(err)
			}
			for hits := 0; hits <= 2; hits++ {
				small := firstHits(spec, normal, hits)
				res, err := r.Reconstruct(ctx, small)
				if err != nil {
					t.Fatalf("%v truth=%v %d hits: %v", prec, truth, hits, err)
				}
				if len(res.Tracks) != 0 {
					t.Fatalf("%v truth=%v %d hits: %d tracks from fewer hits than a track needs", prec, truth, hits, len(res.Tracks))
				}
				batch, err := eng.ReconstructBatch(ctx, []*Event{small, normal, small})
				if err != nil {
					t.Fatalf("%v truth=%v %d hits: batch: %v", prec, truth, hits, err)
				}
				if !reflect.DeepEqual(batch[0], res) || !reflect.DeepEqual(batch[2], res) {
					t.Fatalf("%v truth=%v %d hits: engine result differs from serial", prec, truth, hits)
				}
				if !reflect.DeepEqual(batch[1], alone) {
					t.Fatalf("%v truth=%v %d hits: a degenerate neighbour changed the normal event's result", prec, truth, hits)
				}
			}
		}
	}
}

// countingWrapper is stage middleware that counts stage-1 invocations
// and leaves every stage as it is.
type countingWrapper struct{ embeds *int }

type countedEmbedder struct {
	next Embedder
	n    *int
}

func (c countedEmbedder) Embed(ctx context.Context, a *Arena, ev *Event) (*Matrix, error) {
	*c.n++
	return c.next.Embed(ctx, a, ev)
}

func (w countingWrapper) WrapEmbedder(e Embedder) Embedder                 { return countedEmbedder{e, w.embeds} }
func (countingWrapper) WrapGraphBuilder(b GraphBuilder) GraphBuilder       { return b }
func (countingWrapper) WrapEdgeFilter(f EdgeFilter) EdgeFilter             { return f }
func (countingWrapper) WrapEdgeClassifier(c EdgeClassifier) EdgeClassifier { return c }
func (countingWrapper) WrapTrackExtractor(x TrackExtractor) TrackExtractor { return x }

// TestStageWrapperSeesEmbedAtEveryPrecision: the default radius builder
// asks the (wrapped) stage-1 for the embedding at every precision, so
// embed middleware — fault injection, tracing — runs once per event on
// the learned-stage path whatever the element type.
func TestStageWrapperSeesEmbedAtEveryPrecision(t *testing.T) {
	spec := detector.Ex3Like(0.02)
	spec.NumEvents = 2
	events := detector.Generate(spec, 23).Events
	for _, prec := range []Precision{Float64, Float32, Int8} {
		embeds := 0
		r, err := New(spec, WithSeed(3), WithGNN(8, 2), WithPrecision(prec), WithStageWrapper(countingWrapper{&embeds}))
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			if _, err := r.BuildGraph(context.Background(), ev); err != nil {
				t.Fatal(err)
			}
		}
		if embeds != len(events) {
			t.Errorf("%v: embed middleware ran %d times for %d events", prec, embeds, len(events))
		}
	}
}

// TestFilterEdgeFeaturesComeFromTheArena: the default filter builds the
// candidate edges' feature matrix in the event's arena at every
// precision, so it is recycled with the event instead of left to the
// garbage collector (the forward's own activations are released before
// FilterEdges returns, so whatever is still live is the features).
func TestFilterEdgeFeaturesComeFromTheArena(t *testing.T) {
	spec := detector.Ex3Like(0.02)
	spec.NumEvents = 1
	ev := detector.Generate(spec, 31).Events[0]
	for _, prec := range []Precision{Float64, Float32, Int8} {
		r, err := New(spec, WithSeed(3), WithGNN(8, 2), WithPrecision(prec))
		if err != nil {
			t.Fatal(err)
		}
		a := workspace.NewArena()
		if _, _, err := r.filter.FilterEdges(r.kernelCtx(context.Background()), a, ev, ev.TruthSrc, ev.TruthDst); err != nil {
			t.Fatal(err)
		}
		if a.Live() == 0 {
			t.Errorf("%v: FilterEdges took nothing from the arena: the edge features went to the heap", prec)
		}
		a.Reset()
	}
}

// TestLoadCheckpointRejectedFileChangesNothing: a checkpoint whose
// shapes do not fit the configured model fails LoadCheckpoint and
// leaves parameters, inference forwards and calibration exactly as they
// were, at every precision.
func TestLoadCheckpointRejectedFileChangesNothing(t *testing.T) {
	spec := detector.Ex3Like(0.02)
	spec.NumEvents = 2
	events := detector.Generate(spec, 29).Events
	wider, err := New(spec, WithSeed(77), WithGNN(16, 2))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wider.ckpt.gz")
	if err := wider.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	results := func(r *Reconstructor) []*Result {
		t.Helper()
		out := make([]*Result, len(events))
		for i, ev := range events {
			if out[i], err = r.Reconstruct(context.Background(), ev); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	for _, prec := range []Precision{Float64, Float32, Int8} {
		r, err := New(spec, WithSeed(9), WithGNN(8, 2), WithPrecision(prec))
		if err != nil {
			t.Fatal(err)
		}
		r.i8scales = &i8Scales{}
		beforeBits, beforeRes, beforeScales := paramBits(r), results(r), r.i8scales
		if err := r.LoadCheckpoint(path); err == nil {
			t.Fatalf("%v: LoadCheckpoint accepted the file", prec)
		}
		if !reflect.DeepEqual(paramBits(r), beforeBits) {
			t.Errorf("%v: a rejected checkpoint changed the parameters", prec)
		}
		if r.i8scales != beforeScales {
			t.Errorf("%v: a rejected checkpoint changed the calibration", prec)
		}
		if !reflect.DeepEqual(results(r), beforeRes) {
			t.Errorf("%v: a rejected checkpoint changed what Reconstruct serves", prec)
		}
	}
}

// paramBits flattens the checkpointed parameters to their bit patterns.
func paramBits(r *Reconstructor) []uint64 {
	var bits []uint64
	for _, p := range r.params() {
		for _, v := range p.Value.Data() {
			bits = append(bits, math.Float64bits(v))
		}
	}
	return bits
}

// TestInt8LoadKeepsTrainingWeights: loading a float64 checkpoint at
// Int8 and saving it again reproduces the input parameters exactly —
// the int8 rounding lives in the serving snapshot, never in the
// training weights.
func TestInt8LoadKeepsTrainingWeights(t *testing.T) {
	spec := detector.Ex3Like(0.02)
	dir := t.TempDir()
	src, err := New(spec, WithSeed(41), WithGNN(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	in, out := filepath.Join(dir, "in.ckpt.gz"), filepath.Join(dir, "out.ckpt.gz")
	if err := src.SaveCheckpoint(in); err != nil {
		t.Fatal(err)
	}
	r8, err := New(spec, WithSeed(9), WithGNN(8, 2), WithPrecision(Int8))
	if err != nil {
		t.Fatal(err)
	}
	if err := r8.LoadCheckpoint(in); err != nil {
		t.Fatal(err)
	}
	if err := r8.SaveCheckpoint(out); err != nil {
		t.Fatal(err)
	}
	back, err := New(spec, WithSeed(9), WithGNN(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := back.LoadCheckpoint(out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(paramBits(back), paramBits(src)) {
		t.Fatal("an Int8 load/save round trip changed the float64 parameters")
	}
}

// TestInt8ConstructionDoesNotCalibrate: a fresh Int8 reconstructor has
// no activation scales (construction runs no calibration pass), and
// SaveCheckpointInt8 from it still writes a v4 file that loads, without
// scales (a v4 load skips the file's tables), and serves bitwise what
// the exporter serves.
func TestInt8ConstructionDoesNotCalibrate(t *testing.T) {
	spec := detector.Ex3Like(0.02)
	spec.NumEvents = 1
	ev := detector.Generate(spec, 43).Events[0]
	r8, err := New(spec, WithSeed(9), WithGNN(8, 2), WithPrecision(Int8))
	if err != nil {
		t.Fatal(err)
	}
	if r8.i8scales != nil {
		t.Fatal("construction at Int8 calibrated")
	}
	path := filepath.Join(t.TempDir(), "fresh.i8.ckpt.gz")
	if err := r8.SaveCheckpointInt8(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := New(spec, WithSeed(1), WithGNN(8, 2), WithPrecision(Int8))
	if err != nil {
		t.Fatal(err)
	}
	loaded.i8scales = &i8Scales{} // stale scales of the weights the load replaces
	if err := loaded.LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if loaded.i8scales != nil {
		t.Fatal("the v4 load left activation scales set")
	}
	want, err := r8.Reconstruct(context.Background(), ev)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Reconstruct(context.Background(), ev)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the exported v4 file serves differently from its exporter")
	}
}
