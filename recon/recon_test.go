package recon_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/detector"
	"repro/internal/embed"
	"repro/internal/filter"
	"repro/internal/ignn"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/recon"
)

func testDataset(t *testing.T, scale float64, events int, seed uint64) *detector.Dataset {
	t.Helper()
	spec := detector.Ex3Like(scale)
	spec.NumEvents = events
	return detector.Generate(spec, seed)
}

// TestTruthLevelGraphs: the truth-level builder keeps every truth edge,
// adds fakes, bypasses the filter, and is deterministic per event.
func TestTruthLevelGraphs(t *testing.T) {
	ds := testDataset(t, 0.02, 2, 9)
	r, err := recon.New(ds.Spec, recon.WithTruthLevelGraphs(1.5), recon.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	ev := ds.Events[0]
	eg, err := r.BuildGraph(context.Background(), ev)
	if err != nil {
		t.Fatal(err)
	}
	if eg.NumEdges() < len(ev.TruthSrc) {
		t.Fatalf("truth-level graph has %d edges, fewer than %d truth edges", eg.NumEdges(), len(ev.TruthSrc))
	}
	trueCount := 0
	for _, l := range eg.Label {
		if l > 0.5 {
			trueCount++
		}
	}
	if trueCount < len(ev.TruthSrc) {
		t.Fatalf("only %d/%d truth edges labeled true", trueCount, len(ev.TruthSrc))
	}
	eg2, err := r.BuildGraph(context.Background(), ev)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(eg.G.Src, eg2.G.Src) || !reflect.DeepEqual(eg.G.Dst, eg2.G.Dst) {
		t.Fatal("truth-level building is not deterministic per event")
	}
}

// TestWithoutEdgeFilter: the filter-skip ablation passes every
// constructed edge to the GNN.
func TestWithoutEdgeFilter(t *testing.T) {
	ds := testDataset(t, 0.02, 1, 11)
	unfiltered, err := recon.New(ds.Spec, recon.WithoutEdgeFilter(), recon.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := recon.New(ds.Spec, recon.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	ev := ds.Events[0]
	egU, err := unfiltered.BuildGraph(context.Background(), ev)
	if err != nil {
		t.Fatal(err)
	}
	egF, err := filtered.BuildGraph(context.Background(), ev)
	if err != nil {
		t.Fatal(err)
	}
	if egU.NumEdges() < egF.NumEdges() {
		t.Fatalf("filter-skip graph has %d edges, filtered has %d", egU.NumEdges(), egF.NumEdges())
	}
}

// singleTrack is a custom stage-5 variant: every hit in one candidate.
type singleTrack struct{}

func (singleTrack) ExtractTracks(ctx context.Context, eg *recon.EventGraph, keep []bool) ([][]int, error) {
	track := make([]int, eg.NumVertices())
	for i := range track {
		track[i] = i
	}
	return [][]int{track}, ctx.Err()
}

// TestCustomStage: a swapped-in TrackExtractor is actually used.
func TestCustomStage(t *testing.T) {
	ds := testDataset(t, 0.02, 1, 13)
	r, err := recon.New(ds.Spec, recon.WithTrackExtractor(singleTrack{}), recon.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Reconstruct(context.Background(), ds.Events[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tracks) != 1 || len(res.Tracks[0]) != ds.Events[0].NumHits() {
		t.Fatalf("custom extractor not used: got %d tracks", len(res.Tracks))
	}
}

// TestOptionValidation: invalid options surface as constructor errors.
func TestOptionValidation(t *testing.T) {
	spec := detector.Ex3Like(0.02)
	if _, err := recon.New(spec, recon.WithRadius(-1)); err == nil {
		t.Fatal("WithRadius(-1) accepted")
	}
	if _, err := recon.New(spec, recon.WithWorkers(0)); err == nil {
		t.Fatal("WithWorkers(0) accepted")
	}
	if _, err := recon.New(spec, recon.WithKernelWorkers(-1)); err == nil {
		t.Fatal("WithKernelWorkers(-1) accepted")
	}
}

// TestKernelWorkersParity: the intra-op worker budget is a pure
// performance knob — serial reconstruction at explicit budgets 1, 2,
// and 7 must be bit-identical, an engine combining worker-level and
// kernel-level parallelism must match too, and Fit, whose tapes run
// under the same budget, must train to byte-identical checkpoints.
func TestKernelWorkersParity(t *testing.T) {
	ds := testDataset(t, 0.02, 6, 91)

	var ref []*recon.Result
	for _, kw := range []int{1, 2, 7} {
		r, err := recon.New(ds.Spec, recon.WithSeed(5), recon.WithKernelWorkers(kw))
		if err != nil {
			t.Fatal(err)
		}
		results := make([]*recon.Result, len(ds.Events))
		for i, ev := range ds.Events {
			if results[i], err = r.Reconstruct(context.Background(), ev); err != nil {
				t.Fatal(err)
			}
		}
		if ref == nil {
			ref = results
			continue
		}
		if !reflect.DeepEqual(ref, results) {
			t.Fatalf("kernel workers %d: results diverge from budget 1", kw)
		}
	}

	r, err := recon.New(ds.Spec, recon.WithSeed(5), recon.WithKernelWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := recon.NewEngine(r, recon.WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := eng.ReconstructBatch(context.Background(), ds.Events)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, batch) {
		t.Fatal("engine with kernel workers diverges from serial")
	}

	var refCkpt []byte
	for _, kw := range []int{1, 2} {
		r, err := recon.New(ds.Spec, recon.WithSeed(5), recon.WithGNN(8, 2), recon.WithGNNTraining(2, 3e-3, 2.0), recon.WithKernelWorkers(kw))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Fit(context.Background(), ds.Events[:2]); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "fit.ckpt")
		if err := r.SaveCheckpoint(path); err != nil {
			t.Fatal(err)
		}
		ckpt, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if refCkpt == nil {
			refCkpt = ckpt
		} else if !bytes.Equal(refCkpt, ckpt) {
			t.Fatalf("kernel workers %d: Fit trained a different checkpoint than budget 1", kw)
		}
	}
}

// TestCheckpointInterchange: a recon checkpoint is the plain nn
// checkpoint of the three stage models' parameters in stage order
// (embedder, filter, GNN) — the layout trainers and older files use —
// in both directions, and loading restores bit-identical inference.
func TestCheckpointInterchange(t *testing.T) {
	ds := testDataset(t, 0.02, 2, 21)
	dir := t.TempDir()

	// stageParams builds the models New builds for a seed and lists their
	// parameters in stage order.
	cfg := pipeline.DefaultConfig(ds.Spec)
	stageParams := func(seed uint64) []*recon.Param {
		r := rng.New(seed)
		ps := embed.New(cfg.Embed, r.Split()).Params()
		ps = append(ps, filter.New(cfg.Filter, r.Split()).Params()...)
		return append(ps, ignn.New(cfg.GNN, r.Split()).Params()...)
	}
	reconstruct := func(r *recon.Reconstructor) *recon.Result {
		t.Helper()
		res, err := r.Reconstruct(context.Background(), ds.Events[0])
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	seed5 := stageParams(5)
	plain := filepath.Join(dir, "plain.ckpt")
	if err := nn.SaveParamsFile(plain, seed5); err != nil {
		t.Fatal(err)
	}
	r5, err := recon.New(ds.Spec, recon.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	want := reconstruct(r5)

	// Fresh models with a different seed, then restore the plain file.
	r, err := recon.New(ds.Spec, recon.WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(reconstruct(r), want) {
		t.Fatal("seeds 5 and 99 reconstruct alike: the fixture cannot tell a load from no load")
	}
	if err := r.LoadCheckpoint(plain); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reconstruct(r), want) {
		t.Fatal("inference diverges after loading a plain stage-order checkpoint")
	}

	// And the reverse: a recon checkpoint into plain stage-order models.
	rckpt := filepath.Join(dir, "recon.ckpt")
	if err := r.SaveCheckpoint(rckpt); err != nil {
		t.Fatal(err)
	}
	into := stageParams(123)
	if err := nn.LoadParamsFile(rckpt, into); err != nil {
		t.Fatal(err)
	}
	for i, p := range into {
		if !reflect.DeepEqual(p.Value.Data(), seed5[i].Value.Data()) {
			t.Fatalf("parameter %q differs after loading a recon checkpoint into plain models", p.Name)
		}
	}
}

// TestFitSmoke: Fit trains the default stages end-to-end on a tiny
// dataset and inference still runs.
func TestFitSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("training smoke test")
	}
	ds := testDataset(t, 0.015, 2, 31)
	r, err := recon.New(ds.Spec, recon.WithGNN(8, 2), recon.WithGNNTraining(2, 3e-3, 2.0), recon.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Fit(context.Background(), ds.Events); err != nil {
		t.Fatal(err)
	}
	res, err := r.Reconstruct(context.Background(), ds.Events[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgeCounts.Accuracy() < 0 || res.EdgeCounts.Accuracy() > 1 {
		t.Fatal("degenerate edge counts after Fit")
	}
}

// TestFitCancelled: a pre-cancelled context aborts Fit immediately.
func TestFitCancelled(t *testing.T) {
	ds := testDataset(t, 0.015, 2, 33)
	r, err := recon.New(ds.Spec, recon.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := r.Fit(ctx, ds.Events); err != context.Canceled {
		t.Fatalf("Fit under cancelled ctx: got %v, want context.Canceled", err)
	}
}

// countdownCtx answers Err with nil for its first left calls and with
// context.Canceled from then on, so a test can stop Fit at every point
// where it looks at the context.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelledFitServesSavedWeights: wherever Fit is cancelled — in
// stages 1–3, between them and the GNN, or inside GNN training — the
// reduced-precision forwards serve the weights SaveCheckpoint writes,
// i.e. what a fresh reconstructor loaded from that file serves.
func TestCancelledFitServesSavedWeights(t *testing.T) {
	ds := testDataset(t, 0.01, 2, 35)
	ev := ds.Events[0]
	path := filepath.Join(t.TempDir(), "fit.ckpt.gz")
	for _, prec := range []recon.Precision{recon.Float32, recon.Int8} {
		opts := []recon.Option{recon.WithSeed(4), recon.WithGNN(8, 2), recon.WithGNNTraining(2, 3e-3, 2.0), recon.WithPrecision(prec)}
		fit := func(left int64) (*recon.Reconstructor, *countdownCtx, error) {
			t.Helper()
			r, err := recon.New(ds.Spec, opts...)
			if err != nil {
				t.Fatal(err)
			}
			ctx := &countdownCtx{Context: context.Background()}
			ctx.left.Store(left)
			return r, ctx, r.Fit(ctx, ds.Events)
		}
		// An uncancelled Fit counts the context checks to sweep over.
		_, probe, err := fit(math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		checks := math.MaxInt64 - probe.left.Load()
		for k := int64(0); k < checks; k++ {
			r, _, err := fit(k)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%v, cancelled at check %d of %d: Fit returned %v", prec, k, checks, err)
			}
			if err := r.SaveCheckpoint(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := recon.New(ds.Spec, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := loaded.LoadCheckpoint(path); err != nil {
				t.Fatal(err)
			}
			got, err := r.Reconstruct(context.Background(), ev)
			if err != nil {
				t.Fatal(err)
			}
			want, err := loaded.Reconstruct(context.Background(), ev)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v, cancelled at check %d of %d: Reconstruct serves other weights than SaveCheckpoint wrote", prec, k, checks)
			}
		}
	}
}

// TestReconstructAfterGNNTraining: Fit's GNN stage, trained full-graph
// on truth-level graphs, clears the quality floors through stages 4 and
// 5 on the first training graph.
func TestReconstructAfterGNNTraining(t *testing.T) {
	ds := testDataset(t, 0.04, 2, 21)
	r, err := recon.New(ds.Spec, recon.WithTruthLevelGraphs(1.5), recon.WithGNN(16, 2),
		recon.WithGNNTraining(30, 3e-3, 1), recon.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := r.Fit(ctx, ds.Events); err != nil {
		t.Fatal(err)
	}
	eg, err := r.BuildGraph(ctx, ds.Events[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.ReconstructOn(ctx, eg)
	if err != nil {
		t.Fatal(err)
	}
	counts := res.EdgeCounts
	if counts.Precision() < 0.7 || counts.Recall() < 0.7 {
		t.Fatalf("edge precision %.3f recall %.3f too low after training", counts.Precision(), counts.Recall())
	}
	if res.Match.Efficiency() < 0.3 {
		t.Fatalf("track efficiency %.3f too low", res.Match.Efficiency())
	}
	t.Logf("reconstruct: edgeP=%.3f edgeR=%.3f trackEff=%.3f fakeRate=%.3f tracks=%d",
		counts.Precision(), counts.Recall(), res.Match.Efficiency(), res.Match.FakeRate(), len(res.Tracks))
}
