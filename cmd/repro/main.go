// Command repro regenerates the paper's evaluation, one subcommand per
// part:
//
//	repro table1     Table I: the CTD and Ex3 dataset summary
//	repro figure3    Figure 3: epoch time across simulated GPU counts
//	repro figure4    Figure 4: precision/recall convergence on Ex3
//	repro ablation   the §III-D / §IV-C design-choice ablations
//	repro scaling    the strong-scaling sweep as a JSON record
//	repro trainpipe  GNN-stage training with one impl, epoch by epoch
//
// Each subcommand takes its own flags (`repro <subcommand> -h`). A bad
// command line exits 2; an interrupted or failed run prints the rows it
// finished and exits 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/detector"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/recon"
)

// A subcommand registers its flags on fs and returns the body that runs
// once they are parsed.
type subcommand struct {
	name, summary string
	flags         func(fs *flag.FlagSet) func(ctx context.Context, w io.Writer) error
}

var subcommands = []subcommand{
	{"table1", "Table I: dataset summary for CTD and Ex3", table1},
	{"figure3", "Figure 3: epoch time across simulated GPU counts, PyG vs ours", figure3},
	{"figure4", "Figure 4: precision/recall convergence of full-graph, PyG and ours", figure4},
	{"ablation", "design-choice ablations: allreduce | bulk | fanout | batchsize", ablation},
	{"scaling", "strong-scaling sweep over ranks × bulk k × sync strategies", scaling},
	{"trainpipe", "train the GNN stage with one impl, printing per-epoch P/R", trainpipe},
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run dispatches args[0] to its subcommand and returns the exit status:
// 0 on success or -h, 2 for a bad command line, 1 for a failed or
// interrupted run.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || args[0] == "-h" || args[0] == "-help" || args[0] == "--help" {
		usage(stderr)
		if len(args) == 0 {
			return 2
		}
		return 0
	}
	for _, sc := range subcommands {
		if sc.name != args[0] {
			continue
		}
		fs := flag.NewFlagSet(sc.name, flag.ContinueOnError)
		fs.SetOutput(stderr)
		body := sc.flags(fs)
		if err := fs.Parse(args[1:]); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return 0
			}
			return 2 // the flag set has printed the error and its defaults
		}
		err := body(ctx, stdout)
		if err == nil {
			return 0
		}
		fmt.Fprintf(stderr, "repro %s: %v\n", sc.name, err)
		if errors.As(err, new(usageError)) {
			return 2
		}
		return 1
	}
	fmt.Fprintf(stderr, "repro: unknown subcommand %q\n", args[0])
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: repro <subcommand> [flags]\n\nsubcommands:")
	for _, sc := range subcommands {
		fmt.Fprintf(w, "  %-10s %s\n", sc.name, sc.summary)
	}
	fmt.Fprintln(w, "\nrun 'repro <subcommand> -h' for its flags")
}

// usageError is a bad flag value; run reports it with exit status 2.
type usageError string

func (e usageError) Error() string { return string(e) }

func usagef(format string, a ...any) error { return usageError(fmt.Sprintf(format, a...)) }

// parseInts parses the comma-separated list of flag -name. Empty entries
// are skipped; an entry below 1, or a list with no entries, is refused.
func parseInts(name, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, usagef("bad -%s entry %q", name, part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, usagef("empty -%s list", name)
	}
	return out, nil
}

// parseSync maps a strategy name to the gradient synchronization pattern.
func parseSync(name string) (repro.SyncStrategy, error) {
	switch name {
	case "permatrix":
		return repro.PerMatrixSync, nil
	case "coalesced":
		return repro.CoalescedSync, nil
	}
	return 0, usagef("unknown sync strategy %q; choose permatrix | coalesced", name)
}

// gnnConfig sizes the interaction GNN for a dataset family's features.
func gnnConfig(spec repro.DetectorSpec, hidden, steps int) repro.GNNConfig {
	return repro.GNNConfig{
		NodeFeatures: spec.VertexFeatures,
		EdgeFeatures: spec.EdgeFeatures,
		Hidden:       hidden,
		Steps:        steps,
	}
}

// table1 prints the paper's reference values next to the measured
// statistics of the synthetic datasets at the chosen scale.
func table1(fs *flag.FlagSet) func(context.Context, io.Writer) error {
	scale := fs.Float64("scale", 0.02, "dataset scale factor (1 = paper size)")
	events := fs.Int("events", 80, "event graphs per dataset (paper: 80)")
	seed := fs.Uint64("seed", 7, "generation seed")
	return func(ctx context.Context, w io.Writer) error {
		rows, err := repro.Table1(ctx, repro.ExperimentOptions{
			Scale:  *scale,
			Events: *events,
			Seed:   *seed,
		})
		fmt.Fprintln(w, "TABLE I: Datasets used in our experiments (measured @ scale", *scale, "| paper @ scale 1)")
		fmt.Fprintf(w, "%-5s %7s %14s %14s %10s %9s %9s | %14s %14s\n",
			"Name", "Graphs", "AvgVertices", "AvgEdges", "MLPLayers", "VtxFeats", "EdgFeats",
			"PaperVertices", "PaperEdges")
		for _, r := range rows {
			fmt.Fprintf(w, "%-5s %7d %14.1f %14.1f %10d %9d %9d | %13.1fK %13.1fK\n",
				r.Name, r.Graphs, r.AvgVertices, r.AvgEdges,
				r.MLPLayers, r.VertexFeatures, r.EdgeFeatures,
				r.PaperVertices/1e3, r.PaperEdges/1e3)
		}
		return err
	}
}

// figure3 prints epoch time split into Sampling / Training / AllReduce
// for the PyG-style baseline (sequential per-batch ShaDow, per-matrix
// all-reduce) and our implementation (matrix-based bulk sampling,
// coalesced all-reduce).
func figure3(fs *flag.FlagSet) func(context.Context, io.Writer) error {
	dataset := detector.Ex3
	fs.Var(&dataset, "dataset", "dataset `family`: ex3 or ctd")
	scale := fs.Float64("scale", 0.05, "dataset scale factor")
	events := fs.Int("events", 6, "training event graphs")
	hidden := fs.Int("hidden", 16, "GNN hidden width (paper: 64)")
	steps := fs.Int("steps", 3, "GNN message-passing layers (paper: 8)")
	batch := fs.Int("batch", 256, "global batch size (paper: 256)")
	procsFlag := fs.String("procs", "", "comma-separated process counts (default per dataset)")
	overhead := fs.Duration("sampler-overhead", 15*time.Millisecond,
		"modelled per-invocation sampler launch overhead (calibration in PERF.md, \"Figure 3 timing model\")")
	seed := fs.Uint64("seed", 7, "seed")
	return func(ctx context.Context, w io.Writer) error {
		procs := []int{1, 4, 8} // the paper's Ex3 sweep
		if dataset == detector.CTD {
			procs = []int{4, 8, 16} // the paper's CTD sweep
		}
		if *procsFlag != "" {
			var err error
			if procs, err = parseInts("procs", *procsFlag); err != nil {
				return err
			}
		}
		o := repro.ExperimentOptions{
			Dataset:         string(dataset),
			Scale:           *scale,
			Events:          *events,
			Hidden:          *hidden,
			Steps:           *steps,
			BatchSize:       *batch,
			Seed:            *seed,
			SamplerOverhead: *overhead,
		}
		fmt.Fprintf(w, "FIGURE 3: epoch time, dataset=%s scale=%v procs=%v\n", dataset, *scale, procs)
		fmt.Fprintln(w, "(measured compute sections under a modelled device clock; see \"Timing\" in internal/dtrain)")
		rows, err := repro.Figure3(ctx, o, procs)
		for _, r := range rows {
			fmt.Fprintln(w, " ", r)
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "\nspeedup (PyG / Ours):")
		speedups := repro.Figure3Speedups(rows)
		for _, p := range procs {
			if s, ok := speedups[p]; ok {
				fmt.Fprintf(w, "  p=%-2d %.2fx\n", p, s)
			}
		}
		return nil
	}
}

// figure4 prints precision and recall convergence on Ex3 for full-graph
// training (the original Exa.TrkX behaviour, skipping graphs that exceed
// device memory), ShaDow training with the PyG-style implementation, and
// ShaDow training with ours. Its rows pair the three curves, so an
// interrupted run prints none.
func figure4(fs *flag.FlagSet) func(context.Context, io.Writer) error {
	scale := fs.Float64("scale", 0.05, "dataset scale factor")
	events := fs.Int("events", 8, "event graphs")
	epochs := fs.Int("epochs", 12, "training epochs (paper: 30)")
	hidden := fs.Int("hidden", 16, "GNN hidden width (paper: 64)")
	steps := fs.Int("steps", 3, "GNN message-passing layers (paper: 8)")
	batch := fs.Int("batch", 256, "batch size (paper: 256)")
	seed := fs.Uint64("seed", 7, "seed")
	return func(ctx context.Context, w io.Writer) error {
		res, err := repro.Figure4(ctx, repro.ExperimentOptions{
			Dataset:   "ex3",
			Scale:     *scale,
			Events:    *events,
			Epochs:    *epochs,
			Hidden:    *hidden,
			Steps:     *steps,
			BatchSize: *batch,
			Seed:      *seed,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "FIGURE 4: convergence on Ex3 (full-graph skipped %d graphs/epoch for memory)\n\n", res.Skipped)
		fmt.Fprintf(w, "%5s | %-21s | %-21s | %-21s\n", "", "full-graph", "ShaDow (PyG impl)", "ShaDow (ours)")
		fmt.Fprintf(w, "%5s | %10s %10s | %10s %10s | %10s %10s\n",
			"epoch", "precision", "recall", "precision", "recall", "precision", "recall")
		for i := range res.FullGraph.Points {
			fg, pyg, ours := res.FullGraph.Points[i], res.PyG.Points[i], res.Ours.Points[i]
			fmt.Fprintf(w, "%5d | %10.4f %10.4f | %10.4f %10.4f | %10.4f %10.4f\n",
				i, fg.Precision, fg.Recall, pyg.Precision, pyg.Recall, ours.Precision, ours.Recall)
		}
		fmt.Fprintln(w, "\nfinal:")
		fmt.Fprintf(w, "  full-graph:        P=%.4f R=%.4f\n", res.FullGraph.Final().Precision, res.FullGraph.Final().Recall)
		fmt.Fprintf(w, "  ShaDow (PyG impl): P=%.4f R=%.4f\n", res.PyG.Final().Precision, res.PyG.Final().Recall)
		fmt.Fprintf(w, "  ShaDow (ours):     P=%.4f R=%.4f\n", res.Ours.Final().Precision, res.Ours.Final().Recall)
		return nil
	}
}

// ablation runs one of four design-choice ablations on the one trainer:
// per-matrix vs coalesced all-reduce (§III-D), bulk batch count k
// (§IV-C), ShaDow fanout/depth, and training batch size.
func ablation(fs *flag.FlagSet) func(context.Context, io.Writer) error {
	exp := fs.String("exp", "allreduce", "experiment: allreduce | bulk | fanout | batchsize")
	scale := fs.Float64("scale", 0.03, "dataset scale factor")
	events := fs.Int("events", 4, "event graphs")
	epochs := fs.Int("epochs", 6, "epochs for quality ablations")
	seed := fs.Uint64("seed", 7, "seed")
	return func(ctx context.Context, w io.Writer) error {
		o := repro.ExperimentOptions{
			Scale:           *scale,
			Events:          *events,
			Epochs:          *epochs,
			Hidden:          16,
			Steps:           3,
			Seed:            *seed,
			SamplerOverhead: 2 * time.Millisecond,
		}
		var err error
		switch *exp {
		case "allreduce":
			fmt.Fprintln(w, "ABLATION §III-D: all-reduce strategy for the IGNN parameter set")
			var rows []repro.AllReduceRow
			rows, err = repro.AllReduceAblation(ctx, o, []int{2, 4, 8, 16}, 10)
			for _, r := range rows {
				fmt.Fprintf(w, "  p=%-3d %-10s collectives=%-5d modeled=%v\n",
					r.Procs, r.Strategy, r.Collectives, r.ModeledTime)
			}
		case "bulk":
			fmt.Fprintln(w, "ABLATION §IV-C: bulk batch count k vs sampling time")
			var rows []repro.BulkKRow
			rows, err = repro.BulkKAblation(ctx, o, []int{1, 2, 4, 8, 16})
			for _, r := range rows {
				fmt.Fprintf(w, "  k=%-3d sampler_calls=%-4d sampling=%-14v training=%v\n",
					r.K, r.SamplerCalls, r.Sampling.Round(time.Microsecond), r.Training.Round(time.Microsecond))
			}
		case "fanout":
			fmt.Fprintln(w, "ABLATION: ShaDow depth d / fanout s vs quality and cost")
			var rows []repro.FanoutRow
			rows, err = repro.FanoutAblation(ctx, o, [][2]int{{1, 4}, {2, 4}, {3, 6}, {2, 8}, {3, 8}})
			for _, r := range rows {
				fmt.Fprintf(w, "  d=%d s=%d  precision=%.4f recall=%.4f epoch=%v vertices/root=%.1f\n",
					r.Depth, r.Fanout, r.Precision, r.Recall, r.EpochTime.Round(time.Millisecond), r.AvgSubgraphVertices)
			}
		case "batchsize":
			fmt.Fprintln(w, "ABLATION: batch size vs generalization (Keskar et al. argument)")
			var rows []repro.BatchSizeRow
			rows, err = repro.BatchSizeAblation(ctx, o, []int{32, 64, 128, 256, 512})
			for _, r := range rows {
				fmt.Fprintf(w, "  batch=%-4d steps/epoch=%-4d precision=%.4f recall=%.4f f1=%.4f\n",
					r.BatchSize, r.StepsPerEpoch, r.Precision, r.Recall, r.F1)
			}
		default:
			return usagef("unknown -exp %q; choose allreduce | bulk | fanout | batchsize", *exp)
		}
		return err
	}
}

// trainImpls builds each -impl's trainer configuration: the paper's
// pipeline (bulk matrix sampling, coalesced all-reduce) and its two
// baselines (per-step sampling with per-matrix all-reduce; one step per
// event graph).
var trainImpls = map[string]func(repro.GNNConfig, int) repro.TrainerConfig{
	"ours": repro.OursConfig,
	"pyg":  repro.PyGBaselineConfig,
	"fullgraph": func(gnn repro.GNNConfig, procs int) repro.TrainerConfig {
		cfg := repro.DefaultTrainerConfig(gnn)
		cfg.Ranks = procs
		cfg.Sampler = repro.SamplerFullGraph
		return cfg
	},
}

// trainpipe trains the GNN stage with the one trainer, printing
// per-epoch losses, phase times and validation precision/recall — the
// training workflow behind Figures 3 and 4, exposed directly. The loss
// trajectory of ours and pyg is bit-identical at every -procs, -sync and
// -bulk value.
func trainpipe(fs *flag.FlagSet) func(context.Context, io.Writer) error {
	in := fs.String("i", "", "dataset path (from datagen); empty = generate ex3 @ 0.05")
	epochs := fs.Int("epochs", 8, "epochs")
	batch := fs.Int("batch", 256, "global batch size")
	procs := fs.Int("procs", 2, "simulated GPUs")
	hidden := fs.Int("hidden", 16, "GNN hidden width")
	steps := fs.Int("steps", 3, "GNN layers")
	impl := fs.String("impl", "ours", "training impl: ours | pyg | fullgraph")
	seed := fs.Uint64("seed", 11, "seed")
	sync := fs.String("sync", "", "gradient sync strategy: permatrix | coalesced (empty = the impl's own)")
	bulk := fs.Int("bulk", 0, "batches stacked per bulk sampler call (0 = derived from device memory)")
	return func(ctx context.Context, w io.Writer) error {
		implConfig, ok := trainImpls[*impl]
		if !ok {
			return usagef("unknown -impl %q; choose ours | pyg | fullgraph", *impl)
		}
		var strategy repro.SyncStrategy
		if *sync != "" {
			var err error
			if strategy, err = parseSync(*sync); err != nil {
				return err
			}
		}

		var ds *repro.Dataset
		if *in != "" {
			var err error
			if ds, err = repro.LoadDataset(*in); err != nil {
				return err
			}
		} else {
			spec := repro.Ex3Like(0.05)
			spec.NumEvents = 8
			ds = repro.GenerateDataset(spec, 42)
		}
		cfg := implConfig(gnnConfig(ds.Spec, *hidden, *steps), *procs)
		if *sync != "" {
			cfg.Strategy = strategy
		}
		if *bulk > 0 {
			cfg.BulkBatches = *bulk
		}
		cfg.BatchSize = *batch
		cfg.Epochs = *epochs
		cfg.Seed = *seed

		// Event graphs come from the recon truth-level builder (ground-truth
		// edges plus random fakes), decoupling GNN training from stage 1-3.
		rec, err := recon.New(ds.Spec, recon.WithTruthLevelGraphs(1.5), recon.WithSeed(*seed))
		if err != nil {
			return err
		}
		trainEvs, valEvs, _ := ds.Split(0.75, 0.25)
		graphs := make([]*repro.EventGraph, len(trainEvs)+len(valEvs))
		for i, ev := range slices.Concat(trainEvs, valEvs) {
			if graphs[i], err = rec.BuildGraph(ctx, ev); err != nil {
				return err
			}
		}
		train, val := graphs[:len(trainEvs)], graphs[len(trainEvs):]

		tr, err := repro.NewTrainer(cfg)
		if err != nil {
			return err
		}
		defer tr.Close()

		fmt.Fprintf(w, "training impl=%s procs=%d batch=%d sync=%s on %d graphs\n", *impl, *procs, *batch, cfg.Strategy, len(train))
		start := time.Now()
		for e := 0; e < *epochs; e++ {
			stats, err := tr.TrainEpoch(ctx, train)
			if err != nil {
				return fmt.Errorf("epoch %d: %w", e, err)
			}
			counts := experiments.Evaluate(tr.Model(), val)
			extra := ""
			if stats.BulkK > 0 {
				extra = fmt.Sprintf(" k=%d", stats.BulkK)
			}
			if stats.Skipped > 0 {
				extra += fmt.Sprintf(" skipped=%d", stats.Skipped)
			}
			fmt.Fprintf(w, "epoch %2d: loss=%.6f steps=%d P=%.4f R=%.4f [sampling=%v training=%v comm=%v]%s\n",
				e, stats.Loss, stats.Steps, counts.Precision(), counts.Recall(),
				stats.Timer.Get(metrics.PhaseSampling).Round(time.Millisecond),
				stats.Timer.Get(metrics.PhaseTraining).Round(time.Millisecond),
				stats.Comm.Modeled.Round(time.Microsecond), extra)
		}
		cs := tr.CommStats()
		fmt.Fprintf(w, "done in %v: %d collectives, %.1f KiB logical, modeled comm %v\n",
			time.Since(start).Round(time.Millisecond), cs.Calls,
			float64(cs.LogicalBytes)/1024, cs.Modeled.Round(time.Microsecond))
		return nil
	}
}
