package experiments

import (
	"context"
	"testing"
	"time"
)

// tinyOptions keeps experiment tests fast.
func tinyOptions() Options {
	return Options{
		Scale:           0.015,
		Events:          4,
		Epochs:          3,
		BatchSize:       64,
		Hidden:          8,
		Steps:           2,
		Seed:            5,
		SamplerOverhead: time.Millisecond,
	}
}

func TestRunTable1Shapes(t *testing.T) {
	rows, err := RunTable1Context(context.Background(), tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("Table 1 has %d rows, want 2", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	ctd, ex3 := byName["CTD"], byName["Ex3"]
	if ctd.VertexFeatures != 14 || ctd.EdgeFeatures != 8 || ctd.MLPLayers != 3 {
		t.Fatalf("CTD row %+v", ctd)
	}
	if ex3.VertexFeatures != 6 || ex3.EdgeFeatures != 2 || ex3.MLPLayers != 2 {
		t.Fatalf("Ex3 row %+v", ex3)
	}
	// CTD events are much larger than Ex3 events, as in the paper.
	if ctd.AvgVertices <= 2*ex3.AvgVertices {
		t.Fatalf("CTD avg vertices %v not ≫ Ex3 %v", ctd.AvgVertices, ex3.AvgVertices)
	}
	if ctd.AvgEdges <= ctd.AvgVertices {
		t.Fatalf("CTD edges %v should exceed vertices %v", ctd.AvgEdges, ctd.AvgVertices)
	}
}

func TestRunFigure4Shapes(t *testing.T) {
	o := tinyOptions()
	o.Epochs = 4
	res, err := RunFigure4Context(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]interface{ lenPoints() int }{} {
		_ = name
		_ = h
	}
	if len(res.FullGraph.Points) != o.Epochs || len(res.PyG.Points) != o.Epochs || len(res.Ours.Points) != o.Epochs {
		t.Fatal("curves have wrong length")
	}
	// The memory model must actually bite in the full-graph run.
	if res.Skipped == 0 {
		t.Fatal("full-graph training skipped no graphs — memory model inert")
	}
	// Minibatch (ours) must not be degraded vs the PyG implementation.
	if res.Ours.Final().Recall < res.PyG.Final().Recall-0.15 {
		t.Fatalf("ours recall %v much worse than PyG %v",
			res.Ours.Final().Recall, res.PyG.Final().Recall)
	}
}

func TestRunFigure3Shapes(t *testing.T) {
	// At this tiny scale, total wall time is dominated by 2-core training
	// jitter, so the test asserts the deterministic components of the
	// Figure 3 shape: the all-reduce advantage at P>1, the presence of a
	// memory-derived bulk k, and populated phases. The full speedup claim
	// is validated at real scale by the cmd/figure3 harness and recorded
	// in EXPERIMENTS.md.
	o := tinyOptions()
	rows, err := RunFigure3Context(context.Background(), o, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	find := func(impl string, p int) EpochTimeRow {
		for _, r := range rows {
			if r.Impl == impl && r.Procs == p {
				return r
			}
		}
		t.Fatalf("row %s p=%d missing", impl, p)
		return EpochTimeRow{}
	}
	// Coalesced all-reduce must model strictly less synchronization time
	// than per-matrix at P=2.
	if pyg, ours := find("PyG", 2), find("Ours", 2); ours.AllReduce >= pyg.AllReduce {
		t.Fatalf("ours allreduce %v not < PyG %v", ours.AllReduce, pyg.AllReduce)
	}
	for _, r := range rows {
		if r.Impl == "Ours" && r.BulkK < 1 {
			t.Fatalf("ours row missing bulk k: %+v", r)
		}
		if r.Total() <= 0 || r.Sampling <= 0 || r.Training <= 0 {
			t.Fatalf("empty timing row: %+v", r)
		}
	}
	if sp := Speedups(rows); len(sp) != 2 {
		t.Fatalf("speedups %v", sp)
	}
}

func TestRunAllReduceAblation(t *testing.T) {
	rows, err := RunAllReduceAblationContext(context.Background(), tinyOptions(), []int{2, 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Per-matrix must issue more collectives and model more time than
	// coalesced at the same P.
	byKey := map[string]AllReduceRow{}
	for _, r := range rows {
		byKey[r.Strategy+string(rune(r.Procs))] = r
	}
	for _, p := range []int{2, 4} {
		per := byKey["per-matrix"+string(rune(p))]
		coal := byKey["coalesced"+string(rune(p))]
		if per.Collectives <= coal.Collectives {
			t.Fatalf("p=%d: per-matrix %d collectives vs coalesced %d",
				p, per.Collectives, coal.Collectives)
		}
		if per.ModeledTime <= coal.ModeledTime {
			t.Fatalf("p=%d: per-matrix %v modeled vs coalesced %v",
				p, per.ModeledTime, coal.ModeledTime)
		}
	}
}

func TestRunBulkKAblation(t *testing.T) {
	rows, err := RunBulkKAblationContext(context.Background(), tinyOptions(), []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Larger k ⇒ fewer sampler invocations. This is the deterministic
	// mechanism behind the sampling-time drop; the wall-time effect
	// itself is validated by the uncontended cmd/ablation harness run
	// (recorded in experiment_runs.txt) because measured durations under
	// full-suite CPU contention are too noisy to assert on.
	if rows[1].SamplerCalls >= rows[0].SamplerCalls {
		t.Fatalf("k=4 calls %d not < k=1 calls %d", rows[1].SamplerCalls, rows[0].SamplerCalls)
	}
	for _, r := range rows {
		if r.Sampling <= 0 || r.Training <= 0 {
			t.Fatalf("phases not timed: %+v", r)
		}
	}
}

func TestRunFanoutAblation(t *testing.T) {
	o := tinyOptions()
	o.Epochs = 2
	rows, err := RunFanoutAblationContext(context.Background(), o, [][2]int{{1, 2}, {2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Precision < 0 || r.Precision > 1 || r.Recall < 0 || r.Recall > 1 {
			t.Fatalf("metrics out of range: %+v", r)
		}
		if r.EpochTime <= 0 {
			t.Fatalf("missing epoch time: %+v", r)
		}
	}
}

func TestRunBatchSizeAblation(t *testing.T) {
	o := tinyOptions()
	o.Epochs = 2
	rows, err := RunBatchSizeAblationContext(context.Background(), o, []int{32, 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Smaller batches take more optimizer steps per epoch.
	if rows[0].StepsPerEpoch <= rows[1].StepsPerEpoch {
		t.Fatalf("batch 32 steps %d not > batch 256 steps %d",
			rows[0].StepsPerEpoch, rows[1].StepsPerEpoch)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Dataset != "ex3" || o.Scale == 0 || o.Epochs == 0 || o.BatchSize != 256 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	spec := o.spec()
	if spec.Name != "Ex3" {
		t.Fatalf("spec %v", spec.Name)
	}
	o.Dataset = "ctd"
	if o.spec().Name != "CTD" {
		t.Fatal("ctd spec not selected")
	}
}
