package core

import (
	"testing"

	"repro/internal/detector"
	"repro/internal/gpumem"
	"repro/internal/ignn"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/sampling"
)

// testGraphs builds small truth-level event graphs for trainer tests.
func testGraphs(t *testing.T, events int, scale float64) ([]*pipeline.EventGraph, ignn.Config) {
	t.Helper()
	spec := detector.Ex3Like(scale)
	spec.NumEvents = events
	ds := detector.Generate(spec, 33)
	var egs []*pipeline.EventGraph
	for i, ev := range ds.Events {
		egs = append(egs, pipeline.TruthLevelGraph(spec, ev, 1.5, uint64(200+i)))
	}
	gnn := ignn.Config{
		NodeFeatures: spec.VertexFeatures,
		EdgeFeatures: spec.EdgeFeatures,
		Hidden:       8,
		Steps:        2,
	}
	return egs, gnn
}

func fastConfig(gnn ignn.Config) Config {
	cfg := DefaultConfig(gnn)
	cfg.BatchSize = 64
	cfg.Shadow = sampling.Config{Depth: 2, Fanout: 4}
	cfg.Epochs = 3
	cfg.LR = 3e-3
	return cfg
}

func TestFullGraphTrainingReducesLoss(t *testing.T) {
	egs, gnn := testGraphs(t, 2, 0.02)
	tr := NewTrainer(fastConfig(gnn))
	first := tr.TrainEpochFullGraph(egs)
	var last EpochStats
	for i := 0; i < 6; i++ {
		last = tr.TrainEpochFullGraph(egs)
	}
	if last.Loss >= first.Loss {
		t.Fatalf("full-graph loss did not decrease: %v -> %v", first.Loss, last.Loss)
	}
	if first.Steps != len(egs) {
		t.Fatalf("full-graph steps %d, want one per graph (%d)", first.Steps, len(egs))
	}
	if first.Skipped != 0 {
		t.Fatalf("nothing should be skipped with A100 memory, got %d", first.Skipped)
	}
}

func TestFullGraphSkipsOversizedGraphs(t *testing.T) {
	egs, gnn := testGraphs(t, 3, 0.02)
	cfg := fastConfig(gnn)
	// Size the device so only the smallest graph fits.
	smallest, largest := egs[0], egs[0]
	for _, eg := range egs {
		if eg.NumEdges() < smallest.NumEdges() {
			smallest = eg
		}
		if eg.NumEdges() > largest.NumEdges() {
			largest = eg
		}
	}
	if smallest == largest {
		t.Skip("graphs all the same size")
	}
	budget := ignn.EstimateActivationElements(gnn, smallest.NumVertices(), smallest.NumEdges())
	cfg.Device = gpumem.ScaledDevice(int64(budget+1) * gpumem.BytesPerElement)
	tr := NewTrainer(cfg)
	stats := tr.TrainEpochFullGraph(egs)
	if stats.Skipped == 0 {
		t.Fatal("memory model skipped nothing")
	}
	if stats.Steps+stats.Skipped != len(egs) {
		t.Fatalf("steps %d + skipped %d != graphs %d", stats.Steps, stats.Skipped, len(egs))
	}
}

func TestMinibatchTrainingImprovesMetrics(t *testing.T) {
	egs, gnn := testGraphs(t, 3, 0.02)
	cfg := fastConfig(gnn)
	tr := NewTrainer(cfg)
	val := egs[2:]
	before := tr.Evaluate(val)
	var stats EpochStats
	for i := 0; i < 4; i++ {
		stats = tr.TrainEpochMinibatch(egs[:2])
	}
	after := tr.Evaluate(val)
	if after.F1() <= before.F1() {
		t.Fatalf("minibatch training did not improve F1: %v -> %v", before.F1(), after.F1())
	}
	if stats.Steps == 0 {
		t.Fatal("no steps taken")
	}
	if total := after.TP + after.FP + after.TN + after.FN; total != val[0].NumEdges() {
		t.Fatalf("evaluated %d edges, want %d", total, val[0].NumEdges())
	}
}

func TestMinibatchMoreStepsThanFullGraph(t *testing.T) {
	// The convergence mechanism of Figure 4: minibatch takes many more
	// optimizer steps per epoch than full-graph training.
	egs, gnn := testGraphs(t, 2, 0.02)
	cfg := fastConfig(gnn)
	full := NewTrainer(cfg).TrainEpochFullGraph(egs)
	mini := NewTrainer(cfg).TrainEpochMinibatch(egs)
	if mini.Steps <= full.Steps {
		t.Fatalf("minibatch steps %d not > full-graph steps %d", mini.Steps, full.Steps)
	}
}

func TestBulkSamplerMatchesStandardQuality(t *testing.T) {
	egs, gnn := testGraphs(t, 2, 0.02)
	run := func(sampler SamplerKind) float64 {
		cfg := fastConfig(gnn)
		cfg.Sampler = sampler
		tr := NewTrainer(cfg)
		for i := 0; i < 4; i++ {
			tr.TrainEpochMinibatch(egs[:1])
		}
		return tr.Evaluate(egs[1:]).F1()
	}
	std := run(SamplerStandard)
	bulk := run(SamplerMatrixBulk)
	// "our approach does not suffer from precision or recall degradation"
	if bulk < std-0.1 {
		t.Fatalf("bulk sampler F1 %v much worse than standard %v", bulk, std)
	}
}

func TestReplicasStaySynchronized(t *testing.T) {
	egs, gnn := testGraphs(t, 1, 0.02)
	cfg := fastConfig(gnn)
	cfg.Procs = 3
	cfg.Sync = 1 // coalesced
	tr := NewTrainer(cfg)
	tr.TrainEpochMinibatch(egs)
	base := tr.params[0]
	for rank := 1; rank < cfg.Procs; rank++ {
		for i, p := range tr.params[rank] {
			if diff := p.Value.MaxAbsDiff(base[i].Value); diff > 1e-9 {
				t.Fatalf("rank %d param %d drifted %v", rank, i, diff)
			}
		}
	}
}

func TestPhaseTimerPopulated(t *testing.T) {
	egs, gnn := testGraphs(t, 1, 0.02)
	cfg := fastConfig(gnn)
	cfg.Procs = 2
	tr := NewTrainer(cfg)
	stats := tr.TrainEpochMinibatch(egs)
	if stats.Timer.Get("Sampling") == 0 || stats.Timer.Get("Training") == 0 {
		t.Fatalf("phases not timed: %v", stats.Timer)
	}
	if stats.Timer.Get("AllReduce") == 0 {
		t.Fatal("allreduce phase empty with P=2")
	}
}

func TestBulkKGrowsWithAggregateMemory(t *testing.T) {
	egs, gnn := testGraphs(t, 1, 0.02)
	kFor := func(procs int) int {
		cfg := fastConfig(gnn)
		cfg.Sampler = SamplerMatrixBulk
		cfg.Procs = procs
		cfg.BatchSize = 16
		// Small device so k is memory-limited rather than batch-limited.
		cfg.Device = gpumem.ScaledDevice(3 << 20)
		tr := NewTrainer(cfg)
		stats := tr.TrainEpochMinibatch(egs)
		return stats.BulkK
	}
	k1, k4 := kFor(1), kFor(4)
	if k1 < 1 || k4 < 1 {
		t.Fatalf("bulk k not chosen: k1=%d k4=%d", k1, k4)
	}
	if k4 <= k1 {
		t.Fatalf("bulk k did not grow with devices: k1=%d k4=%d", k1, k4)
	}
}

func TestRunConvergenceHistory(t *testing.T) {
	egs, gnn := testGraphs(t, 2, 0.02)
	cfg := fastConfig(gnn)
	cfg.Epochs = 3
	tr := NewTrainer(cfg)
	h := tr.RunConvergence(Minibatch, egs[:1], egs[1:])
	if len(h.Points) != 3 {
		t.Fatalf("history has %d points, want 3", len(h.Points))
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

func TestFixedBulkK(t *testing.T) {
	egs, gnn := testGraphs(t, 1, 0.02)
	cfg := fastConfig(gnn)
	cfg.Sampler = SamplerMatrixBulk
	cfg.BulkK = 2
	cfg.BatchSize = 32
	tr := NewTrainer(cfg)
	stats := tr.TrainEpochMinibatch(egs)
	if stats.BulkK != 2 {
		t.Fatalf("BulkK %d, want fixed 2", stats.BulkK)
	}
}

func TestModeAndSamplerStrings(t *testing.T) {
	if FullGraph.String() != "full-graph" || Minibatch.String() != "minibatch" {
		t.Fatal("mode names")
	}
	if SamplerStandard.String() != "standard" || SamplerMatrixBulk.String() != "matrix-bulk" {
		t.Fatal("sampler names")
	}
}

func TestScheduleAndClipIntegration(t *testing.T) {
	egs, gnn := testGraphs(t, 1, 0.02)
	cfg := fastConfig(gnn)
	cfg.Epochs = 2
	cfg.Schedule = nn.StepLR{Base: 1e-3, StepSize: 1, Gamma: 0.1}
	cfg.ClipNorm = 0.5
	tr := NewTrainer(cfg)
	h := tr.RunConvergence(Minibatch, egs, egs)
	if len(h.Points) != 2 {
		t.Fatalf("history %d points", len(h.Points))
	}
	// Training with aggressive clipping and decay must still run and keep
	// metrics in range.
	for _, p := range h.Points {
		if p.Precision < 0 || p.Precision > 1 {
			t.Fatalf("precision out of range: %+v", p)
		}
	}
}
