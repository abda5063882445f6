// Package experiments reproduces every table and figure of the paper's
// evaluation section, plus four design-choice ablations. Each Run*
// function returns structured rows; cmd tools and benchmarks render them.
// Every training run goes through the one trainer, internal/dtrain: the
// paper's pipeline and its two baselines are dtrain.Config values.
//
// Scaling: the paper ran CTD (330.7K vertices/graph) on A100 GPUs; these
// harnesses default to laptop-scale synthetic events with the same
// structure. The Options.Scale knob and per-run overrides reach toward
// paper scale when more compute is available.
package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ddp"
	"repro/internal/detector"
	"repro/internal/dtrain"
	"repro/internal/gpumem"
	"repro/internal/ignn"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/pipeline"
)

// Options configures an experiment run. Zero values select laptop-scale
// defaults.
type Options struct {
	Dataset   string  // "ex3" (default) or "ctd"
	Scale     float64 // dataset scale factor (1 = paper size); default 0.02
	Events    int     // number of event graphs; default 8
	Epochs    int     // training epochs; default 8
	BatchSize int     // global batch size; default 256 (paper)
	Hidden    int     // GNN hidden width; default 16 (paper: 64)
	Steps     int     // GNN message-passing layers; default 3 (paper: 8)
	FakeRatio float64 // fake edges per true edge in the event graphs; default 1.5
	Seed      uint64  // default 7

	// DeviceBytes is the per-device activation budget. Default sizes the
	// device so the largest training graphs exceed it, reproducing the
	// full-graph skip behaviour at laptop scale.
	DeviceBytes int64

	// SamplerOverhead is the modelled per-invocation sampler launch cost
	// (see dtrain.Config). Default 2ms (Figure 3 uses 15ms; calibration
	// in PERF.md, "Figure 3 timing model").
	SamplerOverhead time.Duration

	// ComputeSpeedup models accelerator dense-compute throughput relative
	// to this host (see dtrain.Config). Zero means the runner's default:
	// 1 everywhere except Figure 3, which uses 25 so the paper's
	// sampling:training proportions are recovered.
	ComputeSpeedup float64
}

func (o Options) withDefaults() Options {
	if o.Dataset == "" {
		o.Dataset = "ex3"
	}
	if o.Scale == 0 {
		o.Scale = 0.02
	}
	if o.Events == 0 {
		o.Events = 8
	}
	if o.Epochs == 0 {
		o.Epochs = 8
	}
	if o.BatchSize == 0 {
		o.BatchSize = 256
	}
	if o.Hidden == 0 {
		o.Hidden = 16
	}
	if o.Steps == 0 {
		o.Steps = 3
	}
	if o.FakeRatio == 0 {
		o.FakeRatio = 1.5
	}
	if o.Seed == 0 {
		o.Seed = 7
	}
	if o.SamplerOverhead == 0 {
		o.SamplerOverhead = 2 * time.Millisecond
	}
	return o
}

// spec returns the detector spec for the chosen dataset family.
func (o Options) spec() detector.Spec {
	var s detector.Spec
	if o.Dataset == "ctd" {
		s = detector.CTDLike(o.Scale)
	} else {
		s = detector.Ex3Like(o.Scale)
	}
	s.NumEvents = o.Events
	return s
}

// buildGraphs generates events and assembles truth-level event graphs
// (decoupling the GNN-stage experiments from stage 1–3 training), split
// into train and validation sets.
func buildGraphs(o Options) (train, val []*pipeline.EventGraph, gnn ignn.Config) {
	spec := o.spec()
	ds := detector.Generate(spec, o.Seed)
	var egs []*pipeline.EventGraph
	for i, ev := range ds.Events {
		egs = append(egs, pipeline.TruthLevelGraph(spec, ev, o.FakeRatio, o.Seed+uint64(10+i)))
	}
	nVal := len(egs) / 8
	if nVal < 1 {
		nVal = 1
	}
	train = egs[:len(egs)-nVal]
	val = egs[len(egs)-nVal:]
	gnn = ignn.Config{
		NodeFeatures: spec.VertexFeatures,
		EdgeFeatures: spec.EdgeFeatures,
		Hidden:       o.Hidden,
		Steps:        o.Steps,
	}
	return train, val, gnn
}

// defaultDeviceBytes sizes the simulated device so that the largest
// training graph exceeds the full-graph activation budget (reproducing
// the skip behaviour) while sampled subgraphs fit comfortably.
func defaultDeviceBytes(graphs []*pipeline.EventGraph, gnn ignn.Config) int64 {
	maxEst, minEst := 0, 1<<62
	for _, eg := range graphs {
		est := ignn.EstimateActivationElements(gnn, eg.NumVertices(), eg.NumEdges())
		if est > maxEst {
			maxEst = est
		}
		if est < minEst {
			minEst = est
		}
	}
	// Budget between the smallest and largest graph footprint: some
	// graphs train, the biggest are skipped.
	return int64((minEst+maxEst)/2) * gpumem.BytesPerElement
}

// Table1Row is one dataset line of Table I, with the paper's reference
// values alongside measured synthetic statistics.
type Table1Row struct {
	Name           string
	Graphs         int
	AvgVertices    float64
	AvgEdges       float64
	MLPLayers      int
	VertexFeatures int
	EdgeFeatures   int

	PaperVertices float64
	PaperEdges    float64
}

// RunTable1Context generates both dataset families at the given scale
// and measures their Table I statistics. The measured edge count is the
// truth-level graph edge count at the configured fake ratio (the graphs
// the GNN consumes). It checks the context between dataset families and
// returns the rows completed so far alongside ctx.Err().
func RunTable1Context(ctx context.Context, o Options) ([]Table1Row, error) {
	o = o.withDefaults()
	rows := make([]Table1Row, 0, 2)
	paper := map[string][2]float64{
		"CTD": {330700, 6900000},
		"Ex3": {13000, 47800},
	}
	for _, name := range []string{"ctd", "ex3"} {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		oo := o
		oo.Dataset = name
		spec := oo.spec()
		ds := detector.Generate(spec, oo.Seed)
		st := ds.ComputeStats()
		// Edge count of the event graphs the GNN sees.
		avgEdges := st.AvgTruthEdges * (1 + oo.FakeRatio)
		rows = append(rows, Table1Row{
			Name:           st.Name,
			Graphs:         st.Graphs,
			AvgVertices:    st.AvgVertices,
			AvgEdges:       avgEdges,
			MLPLayers:      st.MLPLayers,
			VertexFeatures: st.VertexFeatures,
			EdgeFeatures:   st.EdgeFeatures,
			PaperVertices:  paper[st.Name][0],
			PaperEdges:     paper[st.Name][1],
		})
	}
	return rows, nil
}

// trainerConfig carries the options every training run shares into a
// trainer configuration.
func (o Options) trainerConfig(cfg dtrain.Config) dtrain.Config {
	cfg.Epochs = o.Epochs
	cfg.BatchSize = o.BatchSize
	cfg.Seed = o.Seed
	return cfg
}

// evaluate scores every edge of the graphs and accumulates precision and
// recall counts at threshold 0.5 — "the number of correctly classified
// edges across validation set particle graphs" (Figure 4's metric).
func evaluate(m *ignn.Model, graphs []*pipeline.EventGraph) metrics.BinaryCounts {
	var counts metrics.BinaryCounts
	for _, eg := range graphs {
		if eg.NumEdges() == 0 {
			continue
		}
		scores := m.EdgeScoresCtx(kernels.Context{}, nil, eg.G.Src, eg.G.Dst, eg.X, eg.Y)
		counts.Merge(metrics.FromScores(scores, eg.Label, 0.5))
	}
	return counts
}

// run trains a fresh trainer for cfg.Epochs epochs and returns the last
// epoch's stats. With a validation set it also evaluates precision and
// recall after each epoch — one curve of Figure 4. An interrupted run
// returns no curve.
func run(ctx context.Context, cfg dtrain.Config, train, val []*pipeline.EventGraph) (*metrics.History, dtrain.EpochStats, error) {
	tr, err := dtrain.New(cfg)
	if err != nil {
		return nil, dtrain.EpochStats{}, err
	}
	defer tr.Close()
	h := &metrics.History{}
	var stats dtrain.EpochStats
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if stats, err = tr.TrainEpoch(ctx, train); err != nil {
			return nil, stats, err
		}
		if val == nil {
			continue
		}
		counts := evaluate(tr.Model(), val)
		h.Append(metrics.ConvergencePoint{
			Epoch:     epoch,
			Loss:      stats.Loss,
			Precision: counts.Precision(),
			Recall:    counts.Recall(),
		})
	}
	return h, stats, nil
}

// ConvergenceResult holds the three curves of Figure 4.
type ConvergenceResult struct {
	FullGraph *metrics.History // original Exa.TrkX full-graph training
	PyG       *metrics.History // ShaDow minibatch, PyG-style implementation
	Ours      *metrics.History // ShaDow minibatch, matrix-bulk + coalesced
	Skipped   int              // graphs skipped per epoch by full-graph
}

// RunFigure4Context reproduces the convergence comparison on Ex3:
// full-graph vs ShaDow with the PyG implementation vs ShaDow with our
// implementation, precision and recall per epoch on the validation set —
// the three dtrain.Sampler values at one rank. The two ShaDow curves are
// equal point for point: the samplers draw identical subgraphs. A
// cancelled context stops the run in progress; the partial result holds
// the curves finished so far (later curves nil) alongside ctx.Err().
func RunFigure4Context(ctx context.Context, o Options) (*ConvergenceResult, error) {
	o = o.withDefaults()
	train, val, gnn := buildGraphs(o)
	deviceBytes := o.DeviceBytes
	if deviceBytes == 0 {
		deviceBytes = defaultDeviceBytes(train, gnn)
	}

	// Full-graph on a memory-constrained device (skips the largest
	// graphs), then the PyG baseline, then ours.
	fullCfg := dtrain.DefaultConfig(gnn)
	fullCfg.Sampler = dtrain.SamplerFullGraph
	fullCfg.Device = gpumem.ScaledDevice(deviceBytes)
	res := &ConvergenceResult{}
	var stats dtrain.EpochStats
	var err error
	if res.FullGraph, stats, err = run(ctx, o.trainerConfig(fullCfg), train, val); err != nil {
		return res, err
	}
	res.Skipped = stats.Skipped
	if res.PyG, _, err = run(ctx, o.trainerConfig(dtrain.PyGBaselineConfig(gnn, 1)), train, val); err != nil {
		return res, err
	}
	res.Ours, _, err = run(ctx, o.trainerConfig(dtrain.OursConfig(gnn, 1)), train, val)
	return res, err
}

// EpochTimeRow is one bar of Figure 3: an (implementation, process count)
// pair with its stacked phase breakdown.
type EpochTimeRow struct {
	Dataset   string
	Procs     int
	Impl      string // "PyG" or "Ours"
	Sampling  time.Duration
	Training  time.Duration
	AllReduce time.Duration
	BulkK     int // minibatches sampled in bulk (Ours only)
}

// Total returns the stacked epoch time.
func (r EpochTimeRow) Total() time.Duration { return r.Sampling + r.Training + r.AllReduce }

// String renders the row like the figure's annotations.
func (r EpochTimeRow) String() string {
	k := ""
	if r.BulkK > 0 {
		k = fmt.Sprintf(" k=%d", r.BulkK)
	}
	return fmt.Sprintf("%-4s p=%-2d %-5s total=%-12v sampling=%-12v training=%-12v allreduce=%v%s",
		r.Dataset, r.Procs, r.Impl,
		r.Total().Round(time.Microsecond), r.Sampling.Round(time.Microsecond),
		r.Training.Round(time.Microsecond), r.AllReduce.Round(time.Microsecond), k)
}

// RunFigure3Context measures epoch time across process counts for the PyG
// baseline and our implementation — the stacked bars of Figure 3. The
// paper sweeps P∈{4,8,16} on CTD and P∈{1,4,8} on Ex3.
//
// Defaults calibrated to the paper's hardware (see PERF.md, "Figure 3
// timing model"): A100-sized devices (so bulk k is memory-derived,
// reaching "all" for small datasets exactly as the paper reports for
// Ex3), 15ms sampler launch overhead, and a 25× accelerator compute
// model so the sampling:training proportions match the published bars.
//
// It checks the context between (process count, implementation) cells
// and returns the rows measured so far alongside ctx.Err().
func RunFigure3Context(ctx context.Context, o Options, procs []int) ([]EpochTimeRow, error) {
	// Figure-3-specific defaults, applied before the generic ones.
	if o.SamplerOverhead == 0 {
		o.SamplerOverhead = 15 * time.Millisecond
	}
	if o.ComputeSpeedup == 0 {
		o.ComputeSpeedup = 25
	}
	o = o.withDefaults()
	if len(procs) == 0 {
		procs = []int{1, 4, 8}
	}
	train, _, gnn := buildGraphs(o)
	// The micro-block count fixes the reduction tree, so it is held
	// constant across the sweep and large enough to occupy every rank.
	gradBlocks := 8
	for _, p := range procs {
		gradBlocks = max(gradBlocks, p)
	}

	var rows []EpochTimeRow
	for _, p := range procs {
		for _, impl := range []string{"PyG", "Ours"} {
			cfg := dtrain.PyGBaselineConfig(gnn, p)
			if impl == "Ours" {
				cfg = dtrain.OursConfig(gnn, p)
				// Bulk-k derives from aggregate device memory: A100-sized
				// by default, overridable to force memory-limited k.
				if o.DeviceBytes != 0 {
					cfg.Device = gpumem.ScaledDevice(o.DeviceBytes)
				}
			}
			cfg = o.trainerConfig(cfg)
			cfg.Epochs = 2 // warm epoch (allocators, k probe), then the measured one
			cfg.GradBlocks = gradBlocks
			cfg.SamplerOverhead = o.SamplerOverhead
			cfg.ComputeSpeedup = o.ComputeSpeedup
			_, stats, err := run(ctx, cfg, train, nil)
			if err != nil {
				return rows, err
			}
			rows = append(rows, EpochTimeRow{
				Dataset:   o.Dataset,
				Procs:     p,
				Impl:      impl,
				Sampling:  stats.Timer.Get(metrics.PhaseSampling),
				Training:  stats.Timer.Get(metrics.PhaseTraining),
				AllReduce: stats.Timer.Get(metrics.PhaseAllReduce),
				BulkK:     stats.BulkK,
			})
		}
	}
	return rows, nil
}

// Speedups pairs PyG and Ours rows at equal P and returns Ours' speedup.
func Speedups(rows []EpochTimeRow) map[int]float64 {
	pyg := map[int]time.Duration{}
	ours := map[int]time.Duration{}
	for _, r := range rows {
		if r.Impl == "PyG" {
			pyg[r.Procs] = r.Total()
		} else {
			ours[r.Procs] = r.Total()
		}
	}
	out := map[int]float64{}
	for p, t := range pyg {
		if o, ok := ours[p]; ok && o > 0 {
			out[p] = float64(t) / float64(o)
		}
	}
	return out
}

// AllReduceRow is one point of the §III-D ablation: synchronization cost
// per strategy and process count for the full IGNN parameter set.
type AllReduceRow struct {
	Procs       int
	Strategy    string
	Collectives int64
	ModeledTime time.Duration
}

// RunAllReduceAblationContext reports the collectives and modeled time
// that stepsPerEpoch optimizer steps charge under per-matrix vs
// coalesced all-reduce, read per step from a one-epoch training run per
// (P, strategy) cell. A cancelled context returns the rows so far.
func RunAllReduceAblationContext(ctx context.Context, o Options, procs []int, stepsPerEpoch int) ([]AllReduceRow, error) {
	o = o.withDefaults()
	if len(procs) == 0 {
		procs = []int{2, 4, 8, 16}
	}
	if stepsPerEpoch == 0 {
		stepsPerEpoch = 10
	}
	train, _, gnn := buildGraphs(o)
	var rows []AllReduceRow
	for _, p := range procs {
		for _, sync := range []ddp.SyncStrategy{ddp.PerMatrix, ddp.Coalesced} {
			cfg := o.trainerConfig(dtrain.OursConfig(gnn, p))
			cfg.Strategy = sync
			cfg.Epochs = 1
			// The charge per step does not depend on the data: one graph.
			_, stats, err := run(ctx, cfg, train[:1], nil)
			if err != nil {
				return rows, err
			}
			perStep := func(total int64) int64 { return total / int64(stats.Steps) * int64(stepsPerEpoch) }
			rows = append(rows, AllReduceRow{
				Procs:       p,
				Strategy:    sync.String(),
				Collectives: perStep(stats.Comm.Calls),
				ModeledTime: time.Duration(perStep(int64(stats.Comm.Modeled))),
			})
		}
	}
	return rows, nil
}
