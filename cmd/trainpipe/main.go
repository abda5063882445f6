// Command trainpipe trains the GNN stage on a dataset with the one
// trainer, printing per-epoch losses, phase times, and validation
// precision/recall — the training workflow behind Figures 3 and 4,
// exposed directly. -impl picks the paper's pipeline (ours: bulk matrix
// sampling, coalesced all-reduce) or one of its baselines (pyg: per-step
// sampling, per-matrix all-reduce; fullgraph: one step per event graph);
// the loss trajectory of ours and pyg is bit-identical, at every -procs,
// -sync and -bulk value.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"repro"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/recon"
)

func main() {
	in := flag.String("i", "", "dataset path (from datagen); empty = generate ex3 @ 0.05")
	epochs := flag.Int("epochs", 8, "epochs")
	batch := flag.Int("batch", 256, "global batch size")
	procs := flag.Int("procs", 2, "simulated GPUs")
	hidden := flag.Int("hidden", 16, "GNN hidden width")
	steps := flag.Int("steps", 3, "GNN layers")
	impl := flag.String("impl", "ours", "training impl: ours | pyg | fullgraph")
	seed := flag.Uint64("seed", 11, "seed")
	sync := flag.String("sync", "", "gradient sync strategy: permatrix | coalesced | bucketed (empty = the impl's own)")
	bulk := flag.Int("bulk", 0, "batches stacked per bulk sampler call (0 = derived from device memory)")
	bucketBytes := flag.Int("bucket-bytes", 0, "bucket cap in bytes for -sync bucketed (0 = default)")
	flag.Parse()

	var ds *repro.Dataset
	var err error
	if *in != "" {
		ds, err = repro.LoadDataset(*in)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		spec := repro.Ex3Like(0.05)
		spec.NumEvents = 8
		ds = repro.GenerateDataset(spec, 42)
	}
	gnn := repro.GNNConfig{
		NodeFeatures: ds.Spec.VertexFeatures,
		EdgeFeatures: ds.Spec.EdgeFeatures,
		Hidden:       *hidden,
		Steps:        *steps,
	}
	var cfg repro.TrainerConfig
	switch *impl {
	case "ours":
		cfg = repro.OursConfig(gnn, *procs)
	case "pyg":
		cfg = repro.PyGBaselineConfig(gnn, *procs)
	case "fullgraph":
		cfg = repro.DefaultTrainerConfig(gnn)
		cfg.Ranks = *procs
		cfg.Sampler = repro.SamplerFullGraph
	default:
		log.Fatalf("unknown -impl %q", *impl)
	}
	switch *sync {
	case "":
	case "permatrix":
		cfg.Strategy = repro.PerMatrixSync
	case "coalesced":
		cfg.Strategy = repro.CoalescedSync
	case "bucketed":
		cfg.Strategy = repro.BucketedSync
	default:
		log.Fatalf("unknown -sync %q", *sync)
	}
	if *bulk > 0 {
		cfg.BulkBatches = *bulk
	}
	cfg.BucketBytes = *bucketBytes
	cfg.BatchSize = *batch
	cfg.Epochs = *epochs
	cfg.Seed = *seed

	trainEvs, valEvs, _ := ds.Split(0.75, 0.25)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Event graphs come from the recon truth-level builder (ground-truth
	// edges plus random fakes), decoupling GNN training from stage 1-3.
	rec, err := recon.New(ds.Spec, recon.WithTruthLevelGraphs(1.5), recon.WithSeed(*seed))
	if err != nil {
		log.Fatal(err)
	}
	buildAll := func(evs []*repro.Event) []*repro.EventGraph {
		graphs := make([]*repro.EventGraph, 0, len(evs))
		for _, ev := range evs {
			eg, err := rec.BuildGraph(ctx, ev)
			if err != nil {
				log.Fatal(err)
			}
			graphs = append(graphs, eg)
		}
		return graphs
	}
	train, val := buildAll(trainEvs), buildAll(valEvs)

	tr, err := repro.NewTrainer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer tr.Close()

	fmt.Printf("training impl=%s procs=%d batch=%d sync=%s on %d graphs\n", *impl, *procs, *batch, cfg.Strategy, len(train))
	start := time.Now()
	for e := 0; e < *epochs; e++ {
		stats, err := tr.TrainEpoch(ctx, train)
		if err != nil {
			fmt.Println("interrupted")
			return
		}
		var counts repro.BinaryCounts
		for _, eg := range val {
			scores := tr.Model().EdgeScoresCtx(kernels.Context{}, nil, eg.G.Src, eg.G.Dst, eg.X, eg.Y)
			counts.Merge(metrics.FromScores(scores, eg.Label, 0.5))
		}
		extra := ""
		if stats.BulkK > 0 {
			extra = fmt.Sprintf(" k=%d", stats.BulkK)
		}
		if stats.Skipped > 0 {
			extra += fmt.Sprintf(" skipped=%d", stats.Skipped)
		}
		fmt.Printf("epoch %2d: loss=%.6f steps=%d P=%.4f R=%.4f [sampling=%v training=%v comm=%v]%s\n",
			e, stats.Loss, stats.Steps, counts.Precision(), counts.Recall(),
			stats.Timer.Get(metrics.PhaseSampling).Round(time.Millisecond),
			stats.Timer.Get(metrics.PhaseTraining).Round(time.Millisecond),
			stats.Comm.Modeled.Round(time.Microsecond), extra)
	}
	cs := tr.CommStats()
	fmt.Printf("done in %v: %d collectives, %.1f KiB logical, modeled comm %v\n",
		time.Since(start).Round(time.Millisecond), cs.Calls,
		float64(cs.LogicalBytes)/1024, cs.Modeled.Round(time.Microsecond))
}
