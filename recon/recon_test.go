package recon_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
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

// TestCustomStage: a TrackExtractor a StageWrapper puts in place of
// stage 5 is actually used.
func TestCustomStage(t *testing.T) {
	ds := testDataset(t, 0.02, 1, 13)
	r, err := recon.New(ds.Spec, withExtractor(singleTrack{}), recon.WithSeed(2))
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
	if _, err := recon.New(spec, recon.WithWorkers(0)); err == nil {
		t.Fatal("WithWorkers(0) accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		opt  recon.Option
	}{
		{"WithTruthLevelGraphs(NaN)", recon.WithTruthLevelGraphs(nan)},
		{"WithTruthLevelGraphs(+Inf)", recon.WithTruthLevelGraphs(inf)},
		{"WithGNNTraining lr NaN", recon.WithGNNTraining(1, nan, 2)},
		{"WithGNNTraining lr +Inf", recon.WithGNNTraining(1, inf, 2)},
		{"WithGNNTraining posWeight NaN", recon.WithGNNTraining(1, 3e-3, nan)},
		{"WithGNNTraining posWeight +Inf", recon.WithGNNTraining(1, 3e-3, inf)},
		{"WithGNNTraining posWeight -1", recon.WithGNNTraining(1, 3e-3, -1)},
		{"WithThreshold(NaN)", recon.WithThreshold(nan)},
		{"WithGNN(0, 2)", recon.WithGNN(0, 2)},
		{"WithQueueDepth(-1)", recon.WithQueueDepth(-1)},
		{"WithBatchWindow(-1)", recon.WithBatchWindow(-1)},
		{"WithMaxBatchEvents(0)", recon.WithMaxBatchEvents(0)},
		{"WithRequestTimeout(-1)", recon.WithRequestTimeout(-1)},
		{"WithMaxBodyBytes(0)", recon.WithMaxBodyBytes(0)},
		{"WithPrecision(99)", recon.WithPrecision(99)},
	} {
		if _, err := recon.New(spec, c.opt); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	// Every threshold in use stays valid, 0 included, and so do the
	// boundary values of the others.
	for _, opt := range []recon.Option{
		recon.WithThreshold(0), recon.WithThreshold(0.5),
		recon.WithTruthLevelGraphs(0), recon.WithGNNTraining(1, 3e-3, 0),
	} {
		if _, err := recon.New(spec, opt); err != nil {
			t.Errorf("valid option rejected: %v", err)
		}
	}
}

// TestKernelWorkersFromContext: the kernel budget a wrapped-in stage's
// context carries is the one API.md documents — the full host for serial
// Reconstruct and GOMAXPROCS/workers (at least 1) in each worker of an
// engine pool.
func TestKernelWorkersFromContext(t *testing.T) {
	ds := testDataset(t, 0.02, 2, 91)
	host := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		name    string
		opts    []recon.Option
		workers int // engine workers, all busy on the two-event batch; 0 reconstructs serially
		want    int
	}{
		{"serial", nil, 0, host},
		{"engine two workers", nil, 2, max(host/2, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			emb := &budgetEmbedder{}
			opts := append([]recon.Option{recon.WithSeed(5), recon.WithGNN(8, 2), withEmbedder(emb)}, tc.opts...)
			r, err := recon.New(ds.Spec, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if tc.workers == 0 {
				for _, ev := range ds.Events {
					if _, err := r.Reconstruct(context.Background(), ev); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				eng, err := recon.NewEngine(r, recon.WithWorkers(tc.workers))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := eng.ReconstructBatch(context.Background(), ds.Events); err != nil {
					t.Fatal(err)
				}
			}
			if len(emb.seen) != len(ds.Events) {
				t.Fatalf("embedder ran %d times for %d events", len(emb.seen), len(ds.Events))
			}
			for _, got := range emb.seen {
				if got != tc.want {
					t.Fatalf("kernel workers from context = %d, want %d (GOMAXPROCS %d)", got, tc.want, host)
				}
			}
		})
	}
}

// TestKernelWorkersParity: the intra-op worker budget, which follows
// GOMAXPROCS, is a pure performance knob — serial reconstruction at
// budgets 1, 2, and 7 must be bit-identical, an engine combining
// worker-level and kernel-level parallelism must match too, and Fit,
// whose tapes run under the same budget, must train to byte-identical
// checkpoints.
func TestKernelWorkersParity(t *testing.T) {
	ds := testDataset(t, 0.02, 6, 91)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	var ref []*recon.Result
	for _, kw := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(kw)
		r, err := recon.New(ds.Spec, recon.WithSeed(5))
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

	// Three engine workers with two kernel workers each.
	runtime.GOMAXPROCS(6)
	r, err := recon.New(ds.Spec, recon.WithSeed(5))
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
		runtime.GOMAXPROCS(kw)
		r, err := recon.New(ds.Spec, recon.WithSeed(5), recon.WithGNN(8, 2), recon.WithGNNTraining(2, 3e-3, 2.0))
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

// TestTruthLevelCheckpointInterchange: the checkpoint layout does not
// depend on how stage 2 builds graphs — a truth-level reconstructor
// loads the file a learned-graph one wrote and the reverse, both
// writing the loaded file back byte for byte, and the loaded weights
// serve what the writer's weights serve.
func TestTruthLevelCheckpointInterchange(t *testing.T) {
	ds := testDataset(t, 0.02, 1, 23)
	ctx := context.Background()
	dir := t.TempDir()
	newRecon := func(opts ...recon.Option) *recon.Reconstructor {
		t.Helper()
		r, err := recon.New(ds.Spec, append([]recon.Option{recon.WithGNN(8, 2)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	roundTrip := func(from, into *recon.Reconstructor, name string) {
		t.Helper()
		src, back := filepath.Join(dir, name), filepath.Join(dir, name+".back")
		if err := from.SaveCheckpoint(src); err != nil {
			t.Fatal(err)
		}
		if err := into.LoadCheckpoint(src); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := into.SaveCheckpoint(back); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: the loading reconstructor writes a different checkpoint", name)
		}
	}
	roundTrip(newRecon(recon.WithSeed(4)), newRecon(recon.WithSeed(9), recon.WithTruthLevelGraphs(1.0)), "learned-into-truth")
	truth := newRecon(recon.WithSeed(6), recon.WithTruthLevelGraphs(1.0))
	learned := newRecon(recon.WithSeed(7))
	roundTrip(truth, learned, "truth-into-learned")

	// learned now holds seed 6's weights: on one truth-level graph it
	// scores what truth scores, where a seed-7 reconstructor does not.
	eg, err := truth.BuildGraph(ctx, ds.Events[0])
	if err != nil {
		t.Fatal(err)
	}
	score := func(r *recon.Reconstructor) *recon.Result {
		t.Helper()
		res, err := r.ReconstructOn(ctx, eg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if reflect.DeepEqual(score(newRecon(recon.WithSeed(7))), score(truth)) {
		t.Fatal("seeds 6 and 7 score alike: the fixture cannot tell a load from no load")
	}
	if !reflect.DeepEqual(score(learned), score(truth)) {
		t.Fatal("a learned-graph reconstructor loaded from a truth-level checkpoint scores differently")
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
// where it looks at the context. With record set it also notes the
// function that made each call.
type countdownCtx struct {
	context.Context
	left    atomic.Int64
	record  bool
	mu      sync.Mutex
	callers []string
}

func (c *countdownCtx) Err() error {
	if c.record {
		pc, _, _, _ := runtime.Caller(1)
		c.mu.Lock()
		c.callers = append(c.callers, runtime.FuncForPC(pc).Name())
		c.mu.Unlock()
	}
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelledFitServesSavedWeights: wherever Fit is cancelled — in
// stages 1–3, between them and the GNN, or inside GNN training — the
// reduced-precision forwards serve the weights SaveCheckpoint writes,
// i.e. what a fresh reconstructor loaded from that file serves. Each
// case refits from scratch, so the sweep takes every context check of
// the GNN stage but, of the embedder's and the filter's, only the first,
// one interior epoch and the last: their epochs repeat one another.
func TestCancelledFitServesSavedWeights(t *testing.T) {
	ds := testDataset(t, 0.01, 2, 35)
	ev := ds.Events[0]
	path := filepath.Join(t.TempDir(), "fit.ckpt.gz")
	for _, prec := range []recon.Precision{recon.Float32, recon.Int8} {
		opts := []recon.Option{recon.WithSeed(4), recon.WithGNN(8, 2), recon.WithGNNTraining(2, 3e-3, 2.0), recon.WithPrecision(prec)}
		fit := func(ctx *countdownCtx) (*recon.Reconstructor, error) {
			t.Helper()
			r, err := recon.New(ds.Spec, opts...)
			if err != nil {
				t.Fatal(err)
			}
			return r, r.Fit(ctx, ds.Events)
		}
		// An uncancelled Fit lists the context checks to sweep over.
		probe := &countdownCtx{Context: context.Background(), record: true}
		probe.left.Store(math.MaxInt64)
		if _, err := fit(probe); err != nil {
			t.Fatal(err)
		}
		checks := int64(len(probe.callers))
		for _, k := range cancelPoints(probe.callers) {
			ctx := &countdownCtx{Context: context.Background()}
			ctx.left.Store(k)
			r, err := fit(ctx)
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

// cancelPoints picks, from the functions that made each context check of
// a Fit, the checks TestCancelledFitServesSavedWeights cancels at: the
// first and last check of the embedder's training, of the filter's
// (which begins with its graph build) and of the GNN stage, one interior
// epoch each of the embedder's and the filter's loops, and every check
// of the GNN stage.
func cancelPoints(callers []string) []int64 {
	stage := func(fn string) string {
		switch {
		case strings.HasPrefix(fn, "repro/internal/embed."):
			return "embed"
		case strings.HasPrefix(fn, "repro/internal/pipeline."):
			return "filter"
		}
		return "gnn"
	}
	var points []int64
	for i, fn := range callers {
		s := stage(fn)
		if s == "gnn" || i == 0 || stage(callers[i-1]) != s || i == len(callers)-1 || stage(callers[i+1]) != s {
			points = append(points, int64(i))
		}
	}
	// One interior epoch each: the middle check of the embedder's loop
	// and of the filter's epoch loop (the checks FitStages13 makes).
	for _, interior := range []func(string) bool{
		func(fn string) bool { return stage(fn) == "embed" },
		func(fn string) bool { return strings.HasSuffix(fn, "pipeline.FitStages13") },
	} {
		var idx []int64
		for i, fn := range callers {
			if interior(fn) {
				idx = append(idx, int64(i))
			}
		}
		if len(idx) > 0 {
			points = append(points, idx[len(idx)/2])
		}
	}
	slices.Sort(points)
	return slices.Compact(points)
}
