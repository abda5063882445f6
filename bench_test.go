// Benchmarks regenerating every table and figure of the paper's
// evaluation section, plus kernel microbenchmarks for the substrates.
// Run with: go test -bench=. -benchmem
//
// The experiment benchmarks execute the same harnesses as the cmd tools
// at reduced scale so a full -bench pass completes in minutes on a
// laptop; PERF.md ("Figure 3 timing model") records a cmd/figure3 run at
// the calibrated scale.
package repro_test

import (
	"context"
	"testing"
	"time"

	"repro"
	"repro/recon"
)

func benchOptions() repro.ExperimentOptions {
	return repro.ExperimentOptions{
		Scale:           0.02,
		Events:          4,
		Epochs:          2,
		BatchSize:       128,
		Hidden:          8,
		Steps:           2,
		Seed:            7,
		SamplerOverhead: time.Millisecond,
	}
}

// BenchmarkTable1_DatasetGeneration regenerates Table I: synthesizing the
// CTD-like and Ex3-like datasets and measuring their statistics.
func BenchmarkTable1_DatasetGeneration(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows, _ := repro.Table1(context.Background(), o)
		if len(rows) != 2 {
			b.Fatal("table 1 incomplete")
		}
	}
}

// benchmarkFigure3 measures one (implementation × process-count) cell of
// Figure 3's epoch-time comparison.
func benchmarkFigure3(b *testing.B, procs int) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows, _ := repro.Figure3(context.Background(), o, []int{procs})
		if len(rows) != 2 {
			b.Fatal("figure 3 incomplete")
		}
		b.ReportMetric(repro.Figure3Speedups(rows)[procs], "speedup")
	}
}

// engineBenchFixture mirrors cmd/bench's engine fixture: a 32-event
// batch and an untrained reconstructor.
func engineBenchFixture(b *testing.B) (*recon.Reconstructor, []*repro.Event) {
	b.Helper()
	spec := repro.Ex3Like(0.03)
	spec.NumEvents = 32
	ds := repro.GenerateDataset(spec, 3)
	r, err := recon.New(spec, recon.WithSeed(5))
	if err != nil {
		b.Fatal(err)
	}
	return r, ds.Events
}

// benchmarkEngineBatch measures ReconstructBatch throughput at a worker
// count; compare against workers=1 (or the serial loop in cmd/bench)
// for the multi-worker speedup tracked in BENCH_*.json.
func benchmarkEngineBatch(b *testing.B, workers int) {
	r, events := engineBenchFixture(b)
	eng, err := recon.NewEngine(r, recon.WithWorkers(workers))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ReconstructBatch(ctx, events); err != nil {
			b.Fatal(err)
		}
	}
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(b.N*len(events))/b.Elapsed().Seconds(), "events/s")
	}
}

// BenchmarkEngine_ReconstructBatch_W1 runs the engine single-worker.
func BenchmarkEngine_ReconstructBatch_W1(b *testing.B) { benchmarkEngineBatch(b, 1) }

// BenchmarkEngine_ReconstructBatch_W4 runs the engine with 4 workers.
func BenchmarkEngine_ReconstructBatch_W4(b *testing.B) { benchmarkEngineBatch(b, 4) }

// BenchmarkFigure3_EpochTime_P1 regenerates the P=1 bars of Figure 3.
func BenchmarkFigure3_EpochTime_P1(b *testing.B) { benchmarkFigure3(b, 1) }

// BenchmarkFigure3_EpochTime_P4 regenerates the P=4 bars of Figure 3.
func BenchmarkFigure3_EpochTime_P4(b *testing.B) { benchmarkFigure3(b, 4) }

// BenchmarkFigure3_EpochTime_P8 regenerates the P=8 bars of Figure 3.
func BenchmarkFigure3_EpochTime_P8(b *testing.B) { benchmarkFigure3(b, 8) }

// BenchmarkFigure4_Convergence regenerates Figure 4's three convergence
// curves (full-graph vs PyG-style ShaDow vs ours) at reduced epochs.
func BenchmarkFigure4_Convergence(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res, _ := repro.Figure4(context.Background(), o)
		if len(res.Ours.Points) != o.Epochs {
			b.Fatal("figure 4 incomplete")
		}
		b.ReportMetric(res.Ours.Final().Recall, "recall")
	}
}

// BenchmarkAblation_AllReduce regenerates the §III-D all-reduce
// comparison (per-matrix vs coalesced across process counts).
func BenchmarkAblation_AllReduce(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows, _ := repro.AllReduceAblation(context.Background(), o, []int{2, 4, 8}, 5)
		if len(rows) != 6 {
			b.Fatal("ablation incomplete")
		}
	}
}

// BenchmarkAblation_BulkK regenerates the §IV-C bulk-batch-count sweep.
func BenchmarkAblation_BulkK(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows, _ := repro.BulkKAblation(context.Background(), o, []int{1, 4})
		if len(rows) != 2 {
			b.Fatal("ablation incomplete")
		}
	}
}

// BenchmarkAblation_BatchSize regenerates the batch-size generalization
// sweep.
func BenchmarkAblation_BatchSize(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows, _ := repro.BatchSizeAblation(context.Background(), o, []int{64, 256})
		if len(rows) != 2 {
			b.Fatal("ablation incomplete")
		}
	}
}

// BenchmarkEngine_ReconstructSerial measures full five-stage inference
// one event at a time on the caller's goroutine (the production
// workload of the library, and the engine rows' serial baseline).
func BenchmarkEngine_ReconstructSerial(b *testing.B) {
	r, events := engineBenchFixture(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Reconstruct(ctx, events[i%len(events)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetector_GenerateEvent measures the event simulator.
func BenchmarkDetector_GenerateEvent(b *testing.B) {
	spec := repro.Ex3Like(0.1)
	spec.NumEvents = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repro.GenerateDataset(spec, uint64(i))
	}
}
