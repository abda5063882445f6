package recon

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/detector"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// precisionFixture builds a small trained f64 reconstructor plus an
// untrained twin at the requested precision, weight-synced through a
// checkpoint — the serve deployment shape (train once, load anywhere).
func precisionFixture(t *testing.T, dir string, prec Precision, opts ...Option) (*Reconstructor, *Reconstructor, []*Event) {
	t.Helper()
	spec := detector.Ex3Like(0.02)
	spec.NumEvents = 3
	ds := detector.Generate(spec, 5)
	train, test := ds.Events[:2], ds.Events[2:]

	base := append([]Option{WithSeed(9), WithGNN(8, 2)}, opts...)
	r64, err := New(spec, base...)
	if err != nil {
		t.Fatal(err)
	}
	if err := r64.Fit(context.Background(), train); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "model.ckpt.gz")
	if err := r64.SaveCheckpoint(ckpt); err != nil {
		t.Fatal(err)
	}

	rp, err := New(spec, append(append([]Option{}, base...), WithPrecision(prec))...)
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.LoadCheckpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	return r64, rp, test
}

// TestWithPrecisionF64IsDefaultPath pins that WithPrecision(Float64)
// leaves the historical stages in place — results bitwise identical to
// an option-free reconstructor.
func TestWithPrecisionF64IsDefaultPath(t *testing.T) {
	r64, rp, test := precisionFixture(t, t.TempDir(), Float64)
	ctx := context.Background()
	for _, ev := range test {
		a, err := r64.Reconstruct(ctx, ev)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rp.Reconstruct(ctx, ev)
		if err != nil {
			t.Fatal(err)
		}
		if a.Match.Efficiency() != b.Match.Efficiency() || a.EdgeCounts.Precision() != b.EdgeCounts.Precision() {
			t.Fatalf("Float64 precision changed results: eff %v vs %v, purity %v vs %v",
				a.Match.Efficiency(), b.Match.Efficiency(), a.EdgeCounts.Precision(), b.EdgeCounts.Precision())
		}
		if len(a.Tracks) != len(b.Tracks) {
			t.Fatalf("Float64 precision changed track count: %d vs %d", len(a.Tracks), len(b.Tracks))
		}
	}
}

// precisionBudget is the documented accuracy budget every reduced
// precision must hold against float64 (PERF.md "Accuracy budget"):
// ±0.02 absolute on test-set track efficiency and on per-event edge
// purity. The budget lives here, in exactly one place, for the f32 and
// i8 paths alike.
const precisionBudget = 0.02

// assertTrackParity enforces the accuracy budget: rp's reconstruction
// must reproduce r64's per-event edge purity and test-set track
// efficiency (matched/reconstructable aggregated across events — the
// Table-1 methodology, which keeps single-track granularity on tiny
// fixture events from swamping the comparison) within tol.
func assertTrackParity(t *testing.T, r64, rp *Reconstructor, test []*Event, tol float64) {
	t.Helper()
	ctx := context.Background()
	var matched64, recon64, matchedP, reconP int
	for i, ev := range test {
		a, err := r64.Reconstruct(ctx, ev)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rp.Reconstruct(ctx, ev)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.EdgeCounts.Precision()-b.EdgeCounts.Precision()) > tol {
			t.Fatalf("event %d: %s edge purity %v vs f64 %v (tol %v)",
				i, rp.Precision(), b.EdgeCounts.Precision(), a.EdgeCounts.Precision(), tol)
		}
		matched64 += a.Match.Matched
		recon64 += a.Match.Reconstructable
		matchedP += b.Match.Matched
		reconP += b.Match.Reconstructable
	}
	if recon64 == 0 || reconP == 0 {
		t.Fatal("no reconstructable particles in the parity fixture")
	}
	eff64 := float64(matched64) / float64(recon64)
	effP := float64(matchedP) / float64(reconP)
	if math.Abs(eff64-effP) > tol {
		t.Fatalf("%s test-set efficiency %v vs f64 %v (tol %v)", rp.Precision(), effP, eff64, tol)
	}
}

// parityFixture is precisionFixture with a long enough GNN training run
// that edge scores separate from the decision threshold — the regime
// the accuracy budget is defined over (quantization shifts scores by
// ~1e-2; an undertrained model parks every score at the threshold and
// makes any precision comparison noise).
func parityFixture(t *testing.T, dir string, prec Precision) (*Reconstructor, *Reconstructor, []*Event) {
	t.Helper()
	spec := detector.Ex3Like(0.02)
	spec.NumEvents = 6
	ds := detector.Generate(spec, 5)
	train, test := ds.Events[:3], ds.Events[3:]

	base := []Option{WithSeed(9), WithGNN(8, 2), WithGNNTraining(60, 3e-3, 2.0)}
	r64, err := New(spec, base...)
	if err != nil {
		t.Fatal(err)
	}
	if err := r64.Fit(context.Background(), train); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "model.ckpt.gz")
	if prec == Int8 {
		// The canonical quantized workflow: the fitted reconstructor
		// exports a v4 checkpoint, calibrating activations on its own
		// training events. (Loading a plain float checkpoint at Int8
		// also works but calibrates on the synthetic fallback batch,
		// which is a smoke-serving convenience, not the path the
		// accuracy budget is defined over.)
		if err := r64.SaveCheckpointInt8(ckpt); err != nil {
			t.Fatal(err)
		}
	} else if err := r64.SaveCheckpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	rp, err := New(spec, append(append([]Option{}, base...), WithPrecision(prec))...)
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.LoadCheckpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	return r64, rp, test
}

// TestWithPrecisionF32TrackParity is the acceptance gate for the
// float32 serving path: float32 reconstruction through all five stages
// holds the shared accuracy budget (float32 rounding can only flip
// edges whose scores sit within ~1e-4 of the decision threshold).
func TestWithPrecisionF32TrackParity(t *testing.T) {
	r64, r32, test := parityFixture(t, t.TempDir(), Float32)
	if r32.Precision() != Float32 {
		t.Fatalf("precision %v", r32.Precision())
	}
	assertTrackParity(t, r64, r32, test, precisionBudget)
}

// TestWithPrecisionInt8TrackParity is the acceptance gate for the
// quantized serving path: int8 reconstruction, loaded from a v4
// checkpoint whose activation scales were calibrated on the training
// events, holds the same budget as f32.
func TestWithPrecisionInt8TrackParity(t *testing.T) {
	r64, r8, test := parityFixture(t, t.TempDir(), Int8)
	if r8.Precision() != Int8 {
		t.Fatalf("precision %v", r8.Precision())
	}
	assertTrackParity(t, r64, r8, test, precisionBudget)
}

// TestInt8CheckpointServesIdentically: a v4 quantized checkpoint loads
// into bitwise-identical int8 inference — the stored activation scales
// are adopted verbatim, and dequantizing the int8 weights and
// re-quantizing them at sync reproduces the exporter's quantized
// payload exactly (per-column max |q| is 127 by construction, so the
// re-derived scale is the stored scale).
func TestInt8CheckpointServesIdentically(t *testing.T) {
	dir := t.TempDir()
	_, r8, test := parityFixture(t, dir, Int8)
	ctx := context.Background()

	ckpt8 := filepath.Join(dir, "model.i8.ckpt.gz")
	if err := r8.SaveCheckpointInt8(ckpt8); err != nil {
		t.Fatal(err)
	}
	rFrom8, err := New(r8.Spec(), WithSeed(9), WithGNN(8, 2), WithPrecision(Int8))
	if err != nil {
		t.Fatal(err)
	}
	if err := rFrom8.LoadCheckpoint(ckpt8); err != nil {
		t.Fatal(err)
	}
	for i, ev := range test {
		a, err := r8.Reconstruct(ctx, ev)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rFrom8.Reconstruct(ctx, ev)
		if err != nil {
			t.Fatal(err)
		}
		if a.Match != b.Match || a.EdgeCounts != b.EdgeCounts || len(a.Tracks) != len(b.Tracks) {
			t.Fatalf("event %d: v4-checkpoint serving differs from the exporting reconstructor", i)
		}
	}
}

// TestInt8CalibrateRecalibrates: the public Calibrate entry swaps the
// activation scales and rebuilds the snapshots without touching the
// weights — reconstruction keeps working on the new sample.
func TestInt8CalibrateRecalibrates(t *testing.T) {
	_, r8, test := parityFixture(t, t.TempDir(), Int8)
	if err := r8.Calibrate(context.Background(), test); err != nil {
		t.Fatal(err)
	}
	res, err := r8.Reconstruct(context.Background(), test[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tracks) == 0 {
		t.Fatal("post-recalibration reconstruction produced no tracks")
	}
}

// TestWithPrecisionF32TruthLevel exercises the truth-level builder
// combined with the f32 classifier (the serve smoke-test shape).
func TestWithPrecisionF32TruthLevel(t *testing.T) {
	spec := detector.Ex3Like(0.02)
	spec.NumEvents = 1
	ds := detector.Generate(spec, 7)
	r32, err := New(spec, WithSeed(3), WithGNN(8, 2), WithTruthLevelGraphs(1.0), WithThreshold(0), WithPrecision(Float32))
	if err != nil {
		t.Fatal(err)
	}
	res, err := r32.Reconstruct(context.Background(), ds.Events[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tracks) == 0 {
		t.Fatal("f32 truth-level reconstruction produced no tracks")
	}
}

// TestInt8TruthLevel: an untrained Int8 reconstructor (truth-level
// builder, threshold 0 — the serve smoke-test shape) constructs and
// runs, proving the synthetic-batch calibration fallback produces
// usable scales with no Fit and no checkpoint.
func TestInt8TruthLevel(t *testing.T) {
	spec := detector.Ex3Like(0.02)
	spec.NumEvents = 1
	ds := detector.Generate(spec, 7)
	r8, err := New(spec, WithSeed(3), WithGNN(8, 2), WithTruthLevelGraphs(1.0), WithThreshold(0), WithPrecision(Int8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := r8.Reconstruct(context.Background(), ds.Events[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tracks) == 0 {
		t.Fatal("i8 truth-level reconstruction produced no tracks")
	}
}

// TestEngineInt8MatchesSerial: the engine contract — batch results
// bit-identical to serial at any worker count — holds for the int8
// kernels (int32 accumulation is exact, so there is no reduction-order
// freedom to lose).
func TestEngineInt8MatchesSerial(t *testing.T) {
	_, r8, test := parityFixture(t, t.TempDir(), Int8)
	ctx := context.Background()
	serial := make([]*Result, len(test))
	for i, ev := range test {
		res, err := r8.Reconstruct(ctx, ev)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = res
	}
	for _, workers := range []int{1, 3, 7} {
		eng, err := NewEngine(r8, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		batch, err := eng.ReconstructBatch(ctx, test)
		if err != nil {
			t.Fatal(err)
		}
		for i := range test {
			if serial[i].Match != batch[i].Match || serial[i].EdgeCounts != batch[i].EdgeCounts {
				t.Fatalf("workers=%d event %d: engine i8 result differs from serial", workers, i)
			}
		}
	}
}

// TestEngineF32MatchesSerial: the engine contract — batch results
// bit-identical to serial — holds at reduced precision too.
func TestEngineF32MatchesSerial(t *testing.T) {
	_, r32, test := precisionFixture(t, t.TempDir(), Float32)
	ctx := context.Background()
	eng, err := NewEngine(r32, WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := eng.ReconstructBatch(ctx, test)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range test {
		serial, err := r32.Reconstruct(ctx, ev)
		if err != nil {
			t.Fatal(err)
		}
		if serial.Match.Efficiency() != batch[i].Match.Efficiency() || serial.EdgeCounts != batch[i].EdgeCounts {
			t.Fatalf("event %d: engine f32 result differs from serial", i)
		}
	}
}

// constEmbedder is a custom stage-1 whose output the builder must
// consume — it maps every hit onto a line so the radius graph it
// induces is unmistakably its own.
type constEmbedder struct{}

func (constEmbedder) Embed(ctx context.Context, a *Arena, ev *Event) (*Matrix, error) {
	emb := tensor.NewFrom(a, ev.NumHits(), 2)
	for i := 0; i < ev.NumHits(); i++ {
		emb.Set(i, 0, float64(i)*0.01)
	}
	return emb, ctx.Err()
}

// TestWithPrecisionF32KeepsCustomEmbedder guards the stage-override
// contract at reduced precision: a custom Embedder must feed the graph
// builder (via the embed thunk), not be silently replaced by the
// built-in f32 embedding.
func TestWithPrecisionF32KeepsCustomEmbedder(t *testing.T) {
	spec := detector.Ex3Like(0.02)
	spec.NumEvents = 1
	ds := detector.Generate(spec, 13)
	build := func(opts ...Option) (src []int) {
		t.Helper()
		r, err := New(spec, append([]Option{WithSeed(3), WithGNN(8, 2), WithEmbedder(constEmbedder{}), WithoutEdgeFilter()}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		eg, err := r.BuildGraph(context.Background(), ds.Events[0])
		if err != nil {
			t.Fatal(err)
		}
		return eg.G.Src
	}
	f64Src := build()
	for _, prec := range []Precision{Float32, Int8} {
		src := build(WithPrecision(prec))
		if len(f64Src) != len(src) {
			t.Fatalf("custom embedder graph differs at %s: %d vs %d edges — the %s builder ignored the custom embedding", prec, len(f64Src), len(src), prec)
		}
		for i := range f64Src {
			if f64Src[i] != src[i] {
				t.Fatalf("custom embedder graph differs at %s — the builder ignored the custom embedding", prec)
			}
		}
	}
}

// TestF32CheckpointServesIdentically: an f32-dtype (v3) checkpoint
// loaded into an f32 reconstructor scores identically to the f64
// checkpoint of the same model served at f32 — the load demotion and
// the sync demotion commute.
func TestF32CheckpointServesIdentically(t *testing.T) {
	dir := t.TempDir()
	r64, r32, test := precisionFixture(t, dir, Float32)
	ctx := context.Background()

	ckpt32 := filepath.Join(dir, "model.f32.ckpt.gz")
	if err := nn.SaveParamsFileDtype(ckpt32, r64.params(), nn.DtypeF32); err != nil {
		t.Fatal(err)
	}
	spec := r64.Spec()
	rFrom32, err := New(spec, WithSeed(9), WithGNN(8, 2), WithPrecision(Float32))
	if err != nil {
		t.Fatal(err)
	}
	if err := rFrom32.LoadCheckpoint(ckpt32); err != nil {
		t.Fatal(err)
	}
	for i, ev := range test {
		a, err := r32.Reconstruct(ctx, ev)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rFrom32.Reconstruct(ctx, ev)
		if err != nil {
			t.Fatal(err)
		}
		if a.Match.Efficiency() != b.Match.Efficiency() || a.Match.FakeRate() != b.Match.FakeRate() ||
			len(a.Tracks) != len(b.Tracks) {
			t.Fatalf("event %d: f32-checkpoint serving differs from f64-checkpoint serving at f32", i)
		}
	}
}

// TestInt8ExportFromFloatCalibratesEveryStage: SaveCheckpointInt8 from
// a fitted Float64 or Float32 reconstructor observes every default
// stage, the filter included — no exported activation-scale table is
// the all-ones table of a stage that never saw an input.
func TestInt8ExportFromFloatCalibratesEveryStage(t *testing.T) {
	spec := detector.Ex3Like(0.02)
	spec.NumEvents = 2
	train := detector.Generate(spec, 5).Events
	for _, prec := range []Precision{Float64, Float32} {
		opts := []Option{WithSeed(9), WithGNN(8, 2), WithPrecision(prec)}
		r, err := New(spec, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Fit(context.Background(), train); err != nil {
			t.Fatal(err)
		}
		ckpt := filepath.Join(t.TempDir(), "model.i8.ckpt.gz")
		if err := r.SaveCheckpointInt8(ckpt); err != nil {
			t.Fatal(err)
		}
		into, err := New(spec, opts...)
		if err != nil {
			t.Fatal(err)
		}
		act, err := nn.LoadParamsFileExt(ckpt, into.params())
		if err != nil {
			t.Fatal(err)
		}
		if len(act) == 0 {
			t.Fatalf("%v: v4 checkpoint carries no activation scales", prec)
		}
		for _, table := range act {
			ones := true
			for _, s := range table.Scales {
				ones = ones && s == 1
			}
			if ones {
				t.Errorf("%v: activation-scale table %q is all ones: the stage was never observed", prec, table.Name)
			}
		}
	}
}
