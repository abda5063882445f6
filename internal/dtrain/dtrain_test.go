package dtrain

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/ddp"
	"repro/internal/detector"
	"repro/internal/gpumem"
	"repro/internal/ignn"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/sampling"
)

// testGraphs builds small truth-level event graphs.
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
	cfg.Epochs = 2
	cfg.BatchSize = 48
	cfg.Shadow = sampling.Config{Depth: 2, Fanout: 4}
	cfg.LR = 3e-3
	cfg.Seed = 7
	return cfg
}

// mustNew builds a trainer that is closed when the test ends.
func mustNew(t *testing.T, cfg Config) *Trainer {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// trajectory trains a fresh trainer and returns the concatenated
// per-step loss trajectory across epochs.
func trajectory(t *testing.T, cfg Config, egs []*pipeline.EventGraph) []float64 {
	t.Helper()
	tr := mustNew(t, cfg)
	var losses []float64
	for e := 0; e < cfg.Epochs; e++ {
		stats, err := tr.TrainEpoch(context.Background(), egs)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if stats.Steps == 0 {
			t.Fatalf("epoch %d took no steps", e)
		}
		losses = append(losses, stats.StepLosses...)
	}
	return losses
}

func assertSameTrajectory(t *testing.T, name string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d steps vs %d", name, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: step %d loss %.17g != %.17g (bitwise mismatch)", name, i, got[i], want[i])
		}
	}
}

// TestRankCountParity is the acceptance bar: with a fixed seed and the
// same global batches, P∈{1,2,4} produce bit-identical loss
// trajectories, for both the coalesced and per-matrix strategies.
func TestRankCountParity(t *testing.T) {
	egs, gnn := testGraphs(t, 2, 0.02)
	for _, strategy := range []ddp.SyncStrategy{ddp.Coalesced, ddp.PerMatrix} {
		base := fastConfig(gnn)
		base.Strategy = strategy
		base.Ranks = 1
		want := trajectory(t, base, egs)
		for _, p := range []int{2, 4} {
			cfg := base
			cfg.Ranks = p
			got := trajectory(t, cfg, egs)
			assertSameTrajectory(t, strategy.String()+"/P="+string(rune('0'+p)), want, got)
		}
	}
}

// TestStrategyParity: the sync strategy changes which collectives are
// charged, never the numbers.
func TestStrategyParity(t *testing.T) {
	egs, gnn := testGraphs(t, 1, 0.02)
	base := fastConfig(gnn)
	base.Ranks = 2
	base.Strategy = ddp.Coalesced
	want := trajectory(t, base, egs)
	cfg := base
	cfg.Strategy = ddp.PerMatrix
	assertSameTrajectory(t, "strategy per-matrix", want, trajectory(t, cfg, egs))
}

// TestNewRejectsUnknownStrategy: a strategy outside {PerMatrix,
// Coalesced} is a configuration error, not a silent coalesced run.
func TestNewRejectsUnknownStrategy(t *testing.T) {
	_, gnn := testGraphs(t, 1, 0.02)
	cfg := fastConfig(gnn)
	cfg.Strategy = 2
	if tr, err := New(cfg); err == nil {
		tr.Close()
		t.Fatal("New accepted sync strategy 2")
	}
}

// TestBulkBatchParity: the bulk batch count k is a pure performance
// knob — per-root sampling streams make the subgraphs, and therefore the
// trajectory, independent of sampler-call stacking.
func TestBulkBatchParity(t *testing.T) {
	egs, gnn := testGraphs(t, 1, 0.02)
	base := fastConfig(gnn)
	base.Ranks = 2
	base.BulkBatches = 1
	want := trajectory(t, base, egs)
	for _, k := range []int{2, 4, 0} { // 0: k derived from device memory
		cfg := base
		cfg.BulkBatches = k
		assertSameTrajectory(t, "bulk k", want, trajectory(t, cfg, egs))
	}
}

// TestLossDecreases trains six epochs at two ranks: the epoch loss must
// fall, and the trained model must score some edges of a training graph.
func TestLossDecreases(t *testing.T) {
	egs, gnn := testGraphs(t, 2, 0.02)
	cfg := fastConfig(gnn)
	cfg.Ranks = 2
	cfg.Epochs = 6
	tr := mustNew(t, cfg)
	stats, err := tr.Train(context.Background(), egs)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 6 {
		t.Fatalf("got %d epochs", len(stats))
	}
	if stats[len(stats)-1].Loss >= stats[0].Loss {
		t.Fatalf("loss did not decrease: %v -> %v", stats[0].Loss, stats[len(stats)-1].Loss)
	}
	// The trained model must produce non-degenerate edge scores
	// (evaluation through the public surface lives in recon).
	eg := egs[0]
	scores := ignn.NewInference[float64](tr.Model()).EdgeScoresCtx(kernels.Context{}, nil, eg.G.Src, eg.G.Dst, eg.X, eg.Y)
	counts := metrics.FromScores(scores, eg.Label, 0.5)
	if counts.Precision() == 0 && counts.Recall() == 0 {
		t.Fatal("trained model scored nothing")
	}
}

// TestCommAccounting: coalesced must charge at most the per-matrix
// collective cost at every P — the paper's §III-D claim under the α–β
// model.
func TestCommAccounting(t *testing.T) {
	egs, gnn := testGraphs(t, 1, 0.02)
	for _, p := range []int{2, 4} {
		modeled := map[ddp.SyncStrategy]time.Duration{}
		calls := map[ddp.SyncStrategy]int64{}
		for _, strategy := range []ddp.SyncStrategy{ddp.PerMatrix, ddp.Coalesced} {
			cfg := fastConfig(gnn)
			cfg.Ranks = p
			cfg.Strategy = strategy
			cfg.Epochs = 1
			tr := mustNew(t, cfg)
			if _, err := tr.TrainEpoch(context.Background(), egs); err != nil {
				t.Fatal(err)
			}
			cs := tr.CommStats()
			modeled[strategy] = cs.Modeled
			calls[strategy] = cs.Calls
			if cs.Calls == 0 || cs.Modeled == 0 {
				t.Fatalf("P=%d %s: no comm charged", p, strategy)
			}
		}
		if modeled[ddp.Coalesced] > modeled[ddp.PerMatrix] {
			t.Fatalf("P=%d: coalesced %v > per-matrix %v", p, modeled[ddp.Coalesced], modeled[ddp.PerMatrix])
		}
		if calls[ddp.Coalesced] >= calls[ddp.PerMatrix] {
			t.Fatalf("P=%d: coalesced calls %d not < per-matrix %d", p, calls[ddp.Coalesced], calls[ddp.PerMatrix])
		}
	}
}

// TestSingleRankNoComm: P=1 charges nothing.
func TestSingleRankNoComm(t *testing.T) {
	egs, gnn := testGraphs(t, 1, 0.02)
	cfg := fastConfig(gnn)
	cfg.Epochs = 1
	tr := mustNew(t, cfg)
	if _, err := tr.TrainEpoch(context.Background(), egs); err != nil {
		t.Fatal(err)
	}
	if cs := tr.CommStats(); cs.Modeled != 0 {
		t.Fatalf("P=1 charged %v", cs.Modeled)
	}
}

// TestCancellationMidEpoch: cancelling the context mid-epoch stops every
// rank promptly at a step boundary without leaking goroutines, and
// TrainEpoch reports the context error. It runs per-matrix, the strategy
// with the most collectives per step.
func TestCancellationMidEpoch(t *testing.T) {
	egs, gnn := testGraphs(t, 3, 0.03)
	cfg := fastConfig(gnn)
	cfg.Ranks = 4
	cfg.Strategy = ddp.PerMatrix
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	tr := mustNew(t, cfg)
	// First epoch untouched, then cancel during the second.
	if _, err := tr.TrainEpoch(ctx, egs); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := tr.TrainEpoch(ctx, egs)
	if err == nil {
		// The epoch may have finished before the cancel landed; force a
		// deterministic check with an already-cancelled context.
		_, err = tr.TrainEpoch(ctx, egs)
	}
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// All rank goroutines must be gone.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, g)
	}
}

// TestAlreadyCancelled: a cancelled context takes no steps at all.
func TestAlreadyCancelled(t *testing.T) {
	egs, gnn := testGraphs(t, 1, 0.02)
	cfg := fastConfig(gnn)
	cfg.Ranks = 2
	tr := mustNew(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats, err := tr.TrainEpoch(ctx, egs)
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if stats.Steps != 0 {
		t.Fatalf("cancelled epoch took %d steps", stats.Steps)
	}
}

// TestRanksExceedingBlocks: ranks beyond GradBlocks idle through compute
// but still participate in collectives — no deadlock, same numbers.
func TestRanksExceedingBlocks(t *testing.T) {
	egs, gnn := testGraphs(t, 1, 0.02)
	base := fastConfig(gnn)
	base.GradBlocks = 2
	base.Ranks = 1
	want := trajectory(t, base, egs)
	cfg := base
	cfg.Ranks = 3 // one rank owns no blocks
	assertSameTrajectory(t, "P>G", want, trajectory(t, cfg, egs))
}

// runEpochs trains a fresh trainer for cfg.Epochs epochs and returns the
// trainer with every epoch's stats.
func runEpochs(t *testing.T, cfg Config, egs []*pipeline.EventGraph) (*Trainer, []EpochStats) {
	t.Helper()
	tr := mustNew(t, cfg)
	stats, err := tr.Train(context.Background(), egs)
	if err != nil {
		t.Fatal(err)
	}
	return tr, stats
}

func stepLosses(stats []EpochStats) []float64 {
	var out []float64
	for _, s := range stats {
		out = append(out, s.StepLosses...)
	}
	return out
}

func flatParams(tr *Trainer) []float64 {
	buf := make([]float64, nn.ParamElements(tr.Params()))
	nn.FlattenParams(tr.Params(), buf)
	return buf
}

// TestSamplerParity: the PyG baseline's sampler draws, from the same
// per-root streams, exactly the subgraphs the bulk sampler draws — so it
// changes what sampling costs (one invocation per step instead of one
// per k batches), never a bit of the losses or the trained weights.
func TestSamplerParity(t *testing.T) {
	egs, gnn := testGraphs(t, 2, 0.02)
	for _, p := range []int{1, 2} {
		std := fastConfig(gnn)
		std.Ranks = p
		std.Sampler = SamplerStandard
		stdTr, stdStats := runEpochs(t, std, egs)
		for _, k := range []int{1, 4} {
			bulk := std
			bulk.Sampler = SamplerMatrixBulk
			bulk.BulkBatches = k
			bulkTr, bulkStats := runEpochs(t, bulk, egs)
			assertSameTrajectory(t, "standard vs bulk", stepLosses(bulkStats), stepLosses(stdStats))
			want, got := flatParams(bulkTr), flatParams(stdTr)
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
					t.Fatalf("P=%d k=%d: parameter %d differs between samplers", p, k, i)
				}
			}
			wantCalls := 0
			for _, eg := range egs {
				batches := (eg.NumVertices() + bulk.BatchSize - 1) / bulk.BatchSize
				wantCalls += (batches + k - 1) / k
			}
			for e, s := range bulkStats {
				if s.SamplerCalls != wantCalls || s.BulkK != k {
					t.Fatalf("P=%d k=%d: %d bulk sampler calls at k=%d, want %d", p, k, s.SamplerCalls, s.BulkK, wantCalls)
				}
				if s.SampledVertices != stdStats[e].SampledVertices || s.SampledRoots != stdStats[e].SampledRoots {
					t.Fatalf("P=%d k=%d: samplers visited different vertex counts", p, k)
				}
			}
		}
		for _, s := range stdStats {
			if s.SamplerCalls != s.Steps {
				t.Fatalf("P=%d: standard sampler made %d calls over %d steps", p, s.SamplerCalls, s.Steps)
			}
			if s.Sampling <= 0 {
				t.Fatalf("P=%d: %d sampler calls measured %v of sampling", p, s.SamplerCalls, s.Sampling)
			}
			if s.SampledRoots == 0 || s.SampledVertices < s.SampledRoots {
				t.Fatalf("P=%d: %d vertices sampled from %d roots", p, s.SampledVertices, s.SampledRoots)
			}
		}
	}
}

func fullGraphConfig(gnn ignn.Config) Config {
	cfg := fastConfig(gnn)
	cfg.Sampler = SamplerFullGraph
	return cfg
}

func TestFullGraphTrainingReducesLoss(t *testing.T) {
	egs, gnn := testGraphs(t, 2, 0.02)
	cfg := fullGraphConfig(gnn)
	cfg.Epochs = 7
	_, stats := runEpochs(t, cfg, egs)
	first, last := stats[0], stats[len(stats)-1]
	if last.Loss >= first.Loss {
		t.Fatalf("full-graph loss did not decrease: %v -> %v", first.Loss, last.Loss)
	}
	if first.Steps != len(egs) {
		t.Fatalf("full-graph steps %d, want one per graph (%d)", first.Steps, len(egs))
	}
	if first.Skipped != 0 {
		t.Fatalf("nothing should be skipped with A100 memory, got %d", first.Skipped)
	}
	if first.SamplerCalls != 0 {
		t.Fatalf("full-graph training made %d sampler calls", first.SamplerCalls)
	}
	// One rank trains the whole graph as micro-block 0, the others
	// contribute zero rows: the same numbers at every rank count.
	cfg.Ranks = 2
	_, stats2 := runEpochs(t, cfg, egs)
	assertSameTrajectory(t, "full-graph P=2", stepLosses(stats), stepLosses(stats2))
}

func TestFullGraphSkipsOversizedGraphs(t *testing.T) {
	egs, gnn := testGraphs(t, 3, 0.02)
	cfg := fullGraphConfig(gnn)
	cfg.Epochs = 1
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
	_, stats := runEpochs(t, cfg, egs)
	if stats[0].Skipped == 0 {
		t.Fatal("memory model skipped nothing")
	}
	if stats[0].Steps+stats[0].Skipped != len(egs) {
		t.Fatalf("steps %d + skipped %d != graphs %d", stats[0].Steps, stats[0].Skipped, len(egs))
	}
}

func TestMinibatchMoreStepsThanFullGraph(t *testing.T) {
	// The convergence mechanism of Figure 4: minibatch takes many more
	// optimizer steps per epoch than full-graph training.
	egs, gnn := testGraphs(t, 2, 0.02)
	cfg := fastConfig(gnn)
	cfg.Epochs = 1
	_, mini := runEpochs(t, cfg, egs)
	cfg.Sampler = SamplerFullGraph
	_, full := runEpochs(t, cfg, egs)
	if mini[0].Steps <= full[0].Steps {
		t.Fatalf("minibatch steps %d not > full-graph steps %d", mini[0].Steps, full[0].Steps)
	}
}

func TestBulkKGrowsWithAggregateMemory(t *testing.T) {
	egs, gnn := testGraphs(t, 1, 0.02)
	kFor := func(ranks int) int {
		cfg := OursConfig(gnn, ranks)
		cfg.Shadow = sampling.Config{Depth: 2, Fanout: 4}
		cfg.Epochs = 1
		cfg.BatchSize = 16
		// Small device so k is memory-limited rather than batch-limited.
		cfg.Device = gpumem.ScaledDevice(3 << 20)
		_, stats := runEpochs(t, cfg, egs)
		return stats[0].BulkK
	}
	k1, k4 := kFor(1), kFor(4)
	if k1 < 1 || k4 < 1 {
		t.Fatalf("bulk k not chosen: k1=%d k4=%d", k1, k4)
	}
	if k4 <= k1 {
		t.Fatalf("bulk k did not grow with devices: k1=%d k4=%d", k1, k4)
	}
}

func TestFixedBulkK(t *testing.T) {
	egs, gnn := testGraphs(t, 1, 0.02)
	cfg := fastConfig(gnn)
	cfg.Epochs = 1
	cfg.BulkBatches = 2
	cfg.BatchSize = 32
	_, stats := runEpochs(t, cfg, egs)
	if stats[0].BulkK != 2 {
		t.Fatalf("BulkK %d, want fixed 2", stats[0].BulkK)
	}
}

// TestEpochPhasesMeasured: at P=2 every phase EpochStats reports is
// populated: the measured Sampling, Training and CommWait, and the
// modelled all-reduce.
func TestEpochPhasesMeasured(t *testing.T) {
	egs, gnn := testGraphs(t, 1, 0.02)
	cfg := fastConfig(gnn)
	cfg.Epochs = 1
	cfg.Ranks = 2
	_, stats := runEpochs(t, cfg, egs)
	s := stats[0]
	if s.Sampling == 0 || s.Training == 0 {
		t.Fatalf("phases not timed: sampling %v, training %v", s.Sampling, s.Training)
	}
	if s.Comm.Modeled == 0 {
		t.Fatal("modelled all-reduce empty with P=2")
	}
	if s.CommWait == 0 {
		t.Fatal("no collective wait measured with P=2")
	}
}

func TestReplicasStaySynchronized(t *testing.T) {
	egs, gnn := testGraphs(t, 1, 0.02)
	cfg := fastConfig(gnn)
	cfg.Epochs = 1
	cfg.Ranks = 3
	tr, _ := runEpochs(t, cfg, egs)
	base := tr.ranks[0].params
	for rank := 1; rank < cfg.Ranks; rank++ {
		for i, p := range tr.ranks[rank].params {
			if diff := p.Value.MaxAbsDiff(base[i].Value); diff != 0 {
				t.Fatalf("rank %d param %d drifted %v", rank, i, diff)
			}
		}
	}
}

// TestComputeGate: with four times more ranks than cores, every strategy
// still completes and matches P=1, and the ranks inside a timed compute
// section never outnumber the gate's slots.
func TestComputeGate(t *testing.T) {
	egs, gnn := testGraphs(t, 1, 0.02)
	base := fastConfig(gnn)
	base.Epochs = 1
	want := trajectory(t, base, egs)
	for _, strategy := range []ddp.SyncStrategy{ddp.PerMatrix, ddp.Coalesced} {
		cfg := base
		cfg.Ranks = 4 * runtime.GOMAXPROCS(0)
		cfg.Strategy = strategy
		tr, stats := runEpochs(t, cfg, egs)
		assertSameTrajectory(t, "gated "+strategy.String(), want, stepLosses(stats))
		slots, peak := cap(tr.gate.slots), int(tr.gate.peak.Load())
		if slots != runtime.GOMAXPROCS(0) {
			t.Fatalf("%s: %d slots for one-worker ranks on %d cores", strategy, slots, runtime.GOMAXPROCS(0))
		}
		if peak < 1 || peak > slots {
			t.Fatalf("%s: %d ranks computed at once through %d slots", strategy, peak, slots)
		}
	}
}

// TestTrainerFormsOneRing: every collective of a trainer runs on its one
// ring, in program order: the initial broadcast, then per step the
// cancellation flag, one all-reduce per bucket and the per-block losses.
// So a 3-rank trainer's ring counts 1 + steps·(2 + buckets) calls under
// either strategy.
func TestTrainerFormsOneRing(t *testing.T) {
	egs, gnn := testGraphs(t, 1, 0.02)
	for _, strategy := range []ddp.SyncStrategy{ddp.PerMatrix, ddp.Coalesced} {
		cfg := fastConfig(gnn)
		cfg.Ranks = 3
		cfg.Epochs = 1
		cfg.Strategy = strategy
		tr, stats := runEpochs(t, cfg, egs)
		steps := int64(0)
		for _, s := range stats {
			steps += int64(s.Steps)
		}
		want := 1 + steps*int64(2+tr.NumBuckets())
		if got := tr.ring.Calls(); got != want {
			t.Fatalf("%s: %d ring calls over %d steps and %d buckets, want %d",
				strategy, got, steps, tr.NumBuckets(), want)
		}
	}
}
