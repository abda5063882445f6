package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro"
	"repro/internal/kernels"
	"repro/internal/rng"
	"repro/internal/sparse"
	"repro/internal/tensor"
	"repro/recon"
)

// This file holds the precision benchmark family: every row exists as
// an _f64/_f32 twin over identical fixtures (the f32 operands are the
// rounded f64 operands), so cmd/benchdiff's pair mode
// (-pair _f64:_f32) reports the float32 speed and bytes-moved ratios
// directly and CI gates the B/op reduction mechanically. The kernel
// twins allocate their outputs inside the timed loop on purpose: B/op
// then measures the bytes the kernel writes per op, which is the
// bandwidth claim under test (f32 must move ≥25% fewer).
//
// PR 9 adds _i8 twins for the quantized kernels (SpMM, the GEMM, and
// the end-to-end engine): same fixtures quantized symmetrically, output
// allocated in the timed loop, so `-pair _f32:_i8 -pair-min-bytes-drop
// 40` gates the int8 bandwidth claim the same way.

func benchCSR32(n, nnzPerRow int, seed uint64) *sparse.CSR32 {
	return sparse.ConvertCSR[float32](benchCSR(n, nnzPerRow, seed))
}

func benchMat32(rows, cols int, seed uint64) *tensor.Dense32 {
	return tensor.ConvertFrom[float32](nil, benchMat(rows, cols, seed))
}

// benchQMat quantizes the shared f64 fixture at its own maxabs/127
// per-tensor scale — the same scheme the calibrated inference path uses.
func benchQMat(rows, cols int, seed uint64) *tensor.QMat {
	src := benchMat(rows, cols, seed)
	maxAbs := 0.0
	for _, v := range src.Data() {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		maxAbs = 127
	}
	q := tensor.NewQMat(rows, cols, 0)
	tensor.QuantizeInto(kernels.Context{}, q, tensor.ConvertFrom[float32](nil, src), float32(maxAbs/127))
	return q
}

// precisionSuite returns the _f64/_f32 twin rows.
func precisionSuite() []namedBench {
	return []namedBench{
		{"BenchmarkSpMM_f64", func(b *testing.B) {
			a := benchCSR(2000, 8, 1)
			x := benchMat(2000, 32, 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sparse.SpMM(a, x)
			}
		}},
		{"BenchmarkSpMM_f32", func(b *testing.B) {
			a := benchCSR32(2000, 8, 1)
			x := benchMat32(2000, 32, 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sparse.SpMM(a, x)
			}
		}},
		{"BenchmarkSpMM_i8", func(b *testing.B) {
			a := sparse.QuantizeCSR(benchCSR(2000, 8, 1))
			x := benchQMat(2000, 32, 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := tensor.NewQMat(2000, 32, 0)
				sparse.QSpMMQuantInto(kernels.Context{}, out, a, x, 0.05)
			}
		}},
		{"BenchmarkMatMul_f64", func(b *testing.B) {
			a := benchMat(4096, 64, 1)
			w := benchMat(64, 64, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.MatMul(a, w)
			}
		}},
		{"BenchmarkMatMul_f32", func(b *testing.B) {
			a := benchMat32(4096, 64, 1)
			w := benchMat32(64, 64, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.MatMul(a, w)
			}
		}},
		{"BenchmarkMatMul_i8", func(b *testing.B) {
			a := benchQMat(4096, 64, 1)
			w := tensor.QuantizeWeights(benchMat(64, 64, 2))
			bias := make([]float32, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := tensor.NewQMat(4096, 64, 0)
				tensor.QMatMulBiasReLUQuantInto(kernels.Context{}, out, a, w, bias, 0.05)
			}
		}},
		{"BenchmarkSpMMAdd_f64", func(b *testing.B) {
			a := benchCSR(2000, 8, 1)
			x := benchMat(2000, 32, 3)
			res := benchMat(2000, 32, 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := tensor.New(2000, 32)
				sparse.SpMMAddIntoCtx(kernels.Context{}, out, a, x, res)
			}
		}},
		{"BenchmarkSpMMAdd_f32", func(b *testing.B) {
			a := benchCSR32(2000, 8, 1)
			x := benchMat32(2000, 32, 3)
			res := benchMat32(2000, 32, 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := tensor.NewOf[float32](2000, 32)
				sparse.SpMMAddIntoCtx(kernels.Context{}, out, a, x, res)
			}
		}},
		{"BenchmarkAddBiasReLU_f64", func(b *testing.B) {
			x := benchMat(4096, 64, 1)
			bias := benchMat(1, 64, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := tensor.New(4096, 64)
				tensor.AddBiasReLUIntoCtx(kernels.Context{}, out, x, bias)
			}
		}},
		{"BenchmarkAddBiasReLU_f32", func(b *testing.B) {
			x := benchMat32(4096, 64, 1)
			bias := benchMat32(1, 64, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := tensor.NewOf[float32](4096, 64)
				tensor.AddBiasReLUIntoCtx(kernels.Context{}, out, x, bias)
			}
		}},
		{"BenchmarkGatherConcat3_f64", func(b *testing.B) {
			x := benchMat(4096, 64, 1)
			e := benchMat(8192, 16, 2)
			src, dst := benchEdges(8192, 4096, 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := tensor.New(8192, 16+64+64)
				tensor.GatherConcat3IntoCtx(kernels.Context{}, out, e, nil, x, src, x, dst)
			}
		}},
		{"BenchmarkGatherConcat3_f32", func(b *testing.B) {
			x := benchMat32(4096, 64, 1)
			e := benchMat32(8192, 16, 2)
			src, dst := benchEdges(8192, 4096, 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := tensor.NewOf[float32](8192, 16+64+64)
				tensor.GatherConcat3IntoCtx(kernels.Context{}, out, e, nil, x, src, x, dst)
			}
		}},
		{"BenchmarkEngine_Reconstruct_f64", func(b *testing.B) {
			f := precisionEngineFixture(b)
			runEngineBench(b, f.e64, f.test)
			reportTrackMetrics(b, f.e64, f.test, nil)
		}},
		{"BenchmarkEngine_Reconstruct_f32", func(b *testing.B) {
			f := precisionEngineFixture(b)
			runEngineBench(b, f.e32, f.test)
			reportTrackMetrics(b, f.e32, f.test, f.e64)
		}},
		{"BenchmarkEngine_Reconstruct_i8", func(b *testing.B) {
			f := precisionEngineFixture(b)
			runEngineBench(b, f.e8, f.test)
			reportTrackMetrics(b, f.e8, f.test, f.e64)
		}},
	}
}

// precisionFixtureState caches one trained model served at every
// precision, so the twin rows (and their parity metrics) measure
// identical weights and events.
type precisionFixtureState struct {
	e64, e32, e8 *recon.Engine
	test         []*repro.Event
	err          error
}

var (
	precisionOnce  sync.Once
	precisionState precisionFixtureState
)

func precisionEngineFixture(b *testing.B) *precisionFixtureState {
	precisionOnce.Do(func() {
		ctx := context.Background()
		spec := repro.Ex3Like(0.02)
		spec.NumEvents = 10
		ds := repro.GenerateDataset(spec, 11)
		train, test := ds.Events[:3], ds.Events[3:]
		// The documented ≤0.02 accuracy budget is defined over a trained
		// model: a barely-trained GNN sits near its decision threshold on
		// many edges, where quantization noise flips decisions. Train long
		// enough (matching recon's parity fixture) that the budget is the
		// property under test, not fixture luck.
		opts := []recon.Option{
			recon.WithSeed(9),
			recon.WithGNN(8, 2),
			recon.WithGNNTraining(60, 3e-3, 2.0),
		}
		r64, err := recon.New(spec, opts...)
		if err == nil {
			err = r64.Fit(ctx, train)
		}
		var r32, r8 *recon.Reconstructor
		var ckpt, ckpt8 string
		if err == nil {
			dir, derr := os.MkdirTemp("", "bench-precision")
			if derr != nil {
				err = derr
			} else {
				ckpt = filepath.Join(dir, "model.ckpt.gz")
				ckpt8 = filepath.Join(dir, "model-i8.ckpt.gz")
				err = r64.SaveCheckpoint(ckpt)
			}
		}
		if err == nil {
			// The quantized engine loads a v4 checkpoint exported from the
			// fitted model, so its activation scales are calibrated on the
			// training events — the canonical int8 serving workflow.
			err = r64.SaveCheckpointInt8(ckpt8)
		}
		if err == nil {
			r32, err = recon.New(spec, append(append([]recon.Option{}, opts...), recon.WithPrecision(recon.Float32))...)
		}
		if err == nil {
			err = r32.LoadCheckpoint(ckpt)
		}
		if err == nil {
			r8, err = recon.New(spec, append(append([]recon.Option{}, opts...), recon.WithPrecision(recon.Int8))...)
		}
		if err == nil {
			err = r8.LoadCheckpoint(ckpt8)
		}
		var e64, e32, e8 *recon.Engine
		if err == nil {
			e64, err = recon.NewEngine(r64, recon.WithWorkers(1))
		}
		if err == nil {
			e32, err = recon.NewEngine(r32, recon.WithWorkers(1))
		}
		if err == nil {
			e8, err = recon.NewEngine(r8, recon.WithWorkers(1))
		}
		precisionState = precisionFixtureState{e64: e64, e32: e32, e8: e8, test: test, err: err}
	})
	if precisionState.err != nil {
		b.Fatal(precisionState.err)
	}
	return &precisionState
}

func runEngineBench(b *testing.B, eng *recon.Engine, events []*repro.Event) {
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ReconstructBatch(ctx, events); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportEventsPerSec(b, len(events))
}

// reportTrackMetrics attaches aggregate track efficiency
// (Σmatched/Σreconstructable — the Table-1 methodology) and aggregate
// edge purity over the test events; when ref is non-nil (the f32 and
// i8 rows), the absolute parity deltas against the reference engine
// ride along — the mechanical record of the documented accuracy
// budget.
func reportTrackMetrics(b *testing.B, eng *recon.Engine, events []*repro.Event, ref *recon.Engine) {
	eff, purity, err := meanTrackMetrics(eng, events)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(eff, "track_efficiency")
	b.ReportMetric(purity, "edge_purity")
	if ref != nil {
		refEff, refPurity, err := meanTrackMetrics(ref, events)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(abs(eff-refEff), "eff_delta_vs_f64")
		b.ReportMetric(abs(purity-refPurity), "purity_delta_vs_f64")
	}
}

func meanTrackMetrics(eng *recon.Engine, events []*repro.Event) (eff, purity float64, err error) {
	results, err := eng.ReconstructBatch(context.Background(), events)
	if err != nil {
		return 0, 0, err
	}
	matched, reconstructable := 0, 0
	var edges repro.BinaryCounts
	for _, res := range results {
		if res == nil {
			continue
		}
		matched += res.Match.Matched
		reconstructable += res.Match.Reconstructable
		edges.Merge(res.EdgeCounts)
	}
	if reconstructable > 0 {
		eff = float64(matched) / float64(reconstructable)
	}
	return eff, edges.Precision(), nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// benchEdges builds deterministic random src/dst index lists.
func benchEdges(m, n int, seed uint64) (src, dst []int) {
	r := rng.New(seed)
	src = make([]int, m)
	dst = make([]int, m)
	for i := range src {
		src[i] = r.Intn(n)
		dst[i] = r.Intn(n)
	}
	return src, dst
}
