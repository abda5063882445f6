package experiments

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/dtrain"
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
	if len(res.FullGraph.Points) != o.Epochs || len(res.ShaDow.Points) != o.Epochs {
		t.Fatal("curves have wrong length")
	}
	// The memory model must actually bite in the full-graph run.
	if res.Skipped == 0 {
		t.Fatal("full-graph training skipped no graphs — memory model inert")
	}
	// Minibatch (ours) is not degraded vs the PyG implementation: the two
	// samplers draw the same subgraphs, so the PyG baseline trains the
	// very curve Figure 4 plots for both.
	o = o.withDefaults()
	train, val, gnn, err := buildGraphs(o)
	if err != nil {
		t.Fatal(err)
	}
	pyg, _, err := run(context.Background(), o.trainerConfig(dtrain.PyGBaselineConfig(gnn, 1)), train, val)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pyg.Points {
		if ours := res.ShaDow.Points[i]; ours != p {
			t.Fatalf("epoch %d: ours %+v != PyG %+v", i, ours, p)
		}
	}
}

func TestMinibatchTrainingImprovesMetrics(t *testing.T) {
	o := tinyOptions().withDefaults()
	train, val, gnn, err := buildGraphs(o)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := dtrain.New(o.trainerConfig(dtrain.OursConfig(gnn, 1)))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	before := Evaluate(tr.Model(), val)
	steps := 0
	for i := 0; i < 4; i++ {
		stats, err := tr.TrainEpoch(context.Background(), train)
		if err != nil {
			t.Fatal(err)
		}
		steps += stats.Steps
	}
	after := Evaluate(tr.Model(), val)
	if after.F1() <= before.F1() {
		t.Fatalf("minibatch training did not improve F1: %v -> %v", before.F1(), after.F1())
	}
	if steps == 0 {
		t.Fatal("no steps taken")
	}
	if total := after.TP + after.FP + after.TN + after.FN; total != val[0].NumEdges() {
		t.Fatalf("evaluated %d edges, want %d", total, val[0].NumEdges())
	}
}

func TestConvergenceHistory(t *testing.T) {
	o := tinyOptions().withDefaults()
	train, val, gnn, err := buildGraphs(o)
	if err != nil {
		t.Fatal(err)
	}
	h, stats, err := run(context.Background(), o.trainerConfig(dtrain.OursConfig(gnn, 1)), train, val)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Points) != o.Epochs || stats.Steps == 0 {
		t.Fatalf("history has %d points over %d-step epochs, want %d", len(h.Points), stats.Steps, o.Epochs)
	}
	for _, pt := range h.Points {
		if pt.Precision < 0 || pt.Precision > 1 || pt.Recall < 0 || pt.Recall > 1 {
			t.Fatalf("metrics out of range: %+v", pt)
		}
	}
	if h.Final().Recall < h.Points[0].Recall-0.2 {
		t.Fatalf("recall collapsed during training: %+v", h.Points)
	}
}

func TestRunFigure3Shapes(t *testing.T) {
	// At this tiny scale, total wall time is dominated by 2-core training
	// jitter, so the test asserts the deterministic components of the
	// Figure 3 shape: the all-reduce advantage at P>1, the presence of a
	// memory-derived bulk k, and populated phases. The full speedup claim
	// is validated at real scale by cmd/repro's figure3 and recorded
	// in PERF.md ("Figure 3 timing model").
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

// TestEpochTimeRowComposition: Figure 3 puts the trainer's measurements
// on the modelled device. Launch is calls × overhead, Training is the
// measured value over figure3ComputeSpeedup (truncated to the
// nanosecond), and the total is the sum of the four columns. That is
// the total the trainer charged when it applied the clock itself,
// max_r(s_r + c·o) + T/25 + A, since every rank makes the same c calls.
func TestEpochTimeRowComposition(t *testing.T) {
	const overhead = 15 * time.Millisecond
	rankSampling := []time.Duration{7608 * time.Microsecond, 5 * time.Millisecond}
	stats := dtrain.EpochStats{
		Sampling:     max(rankSampling[0], rankSampling[1]),
		Training:     2144400013, // /25 = 85776000.52ns
		SamplerCalls: 23,
		BulkK:        3,
		Comm:         dtrain.CommStats{Modeled: 30737 * time.Microsecond},
	}
	r := epochTimeRow(stats, overhead)
	if r.Sampling != stats.Sampling || r.AllReduce != stats.Comm.Modeled || r.BulkK != 3 {
		t.Fatalf("measured fields not carried over: %+v", r)
	}
	if r.Launch != 345*time.Millisecond {
		t.Fatalf("launch %v, want 23 calls × 15ms = 345ms", r.Launch)
	}
	if r.Training != 85776000 {
		t.Fatalf("training %d ns, want 85776000 (measured / 25)", r.Training)
	}
	if want := 7608*time.Microsecond + 345*time.Millisecond + 85776*time.Microsecond + 30737*time.Microsecond; r.Total() != want {
		t.Fatalf("total %v, want %v", r.Total(), want)
	}
	var clocked time.Duration // the trainer's old Sampling phase
	for _, s := range rankSampling {
		clocked = max(clocked, s+time.Duration(stats.SamplerCalls)*overhead)
	}
	if old := clocked + time.Duration(float64(stats.Training)/25) + stats.Comm.Modeled; r.Total() != old {
		t.Fatalf("total %v, want the clocked trainer's %v", r.Total(), old)
	}

	pyg, ours := r, epochTimeRow(dtrain.EpochStats{Sampling: time.Millisecond, SamplerCalls: 8}, overhead)
	pyg.Procs, pyg.Impl, ours.Procs, ours.Impl = 4, "PyG", 4, "Ours"
	if got, want := Speedups([]EpochTimeRow{pyg, ours})[4], float64(r.Total())/float64(121*time.Millisecond); got != want {
		t.Fatalf("speedup %v, want %v", got, want)
	}
	if !strings.Contains(r.String(), "launch=345ms ") {
		t.Fatalf("row %q has no launch column", r)
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
	// Larger k ⇒ fewer sampler invocations (the trainer's exact count).
	// This is the deterministic mechanism behind the sampling-time drop;
	// measured durations under full-suite CPU contention are too noisy
	// to assert on.
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
		if r.AvgSubgraphVertices < 1 {
			t.Fatalf("missing subgraph size: %+v", r)
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
	for name, want := range map[string]string{"ex3": "Ex3", "ctd": "CTD"} {
		o.Dataset = name
		spec, err := o.spec()
		if err != nil || spec.Name != want || spec.NumEvents != o.Events {
			t.Fatalf("Dataset %q: spec %q with %d events, err %v; want %q with %d", name, spec.Name, spec.NumEvents, err, want, o.Events)
		}
	}
}

// TestUnknownDatasetIsAnError: a name other than "ex3" or "ctd" (a
// capitalised or mistyped one included) must fail the run, not train on
// Ex3 under the wrong label.
func TestUnknownDatasetIsAnError(t *testing.T) {
	for _, name := range []string{"CTD", "Ex3", "ctd ", "ex4"} {
		o := tinyOptions()
		o.Dataset = name
		if rows, err := RunFigure3Context(context.Background(), o, []int{1}); err == nil || len(rows) != 0 {
			t.Fatalf("Figure 3 on dataset %q: %d rows, err %v; want no rows and an error", name, len(rows), err)
		}
		if _, err := RunFigure4Context(context.Background(), o); err == nil {
			t.Fatalf("Figure 4 on dataset %q: no error", name)
		}
	}
}
