// Command ablation runs four design-choice ablations on the one trainer:
// per-matrix vs coalesced all-reduce (§III-D), bulk batch count k
// (§IV-C), ShaDow fanout/depth, and training batch size.
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
)

func main() {
	exp := flag.String("exp", "allreduce", "experiment: allreduce | bulk | fanout | batchsize")
	scale := flag.Float64("scale", 0.03, "dataset scale factor")
	events := flag.Int("events", 4, "event graphs")
	epochs := flag.Int("epochs", 6, "epochs for quality ablations")
	seed := flag.Uint64("seed", 7, "seed")
	flag.Parse()

	o := repro.ExperimentOptions{
		Scale:           *scale,
		Events:          *events,
		Epochs:          *epochs,
		Hidden:          16,
		Steps:           3,
		Seed:            *seed,
		SamplerOverhead: 2 * time.Millisecond,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var err error
	switch *exp {
	case "allreduce":
		fmt.Println("ABLATION §III-D: all-reduce strategy for the IGNN parameter set")
		var rows []repro.AllReduceRow
		rows, err = repro.AllReduceAblation(ctx, o, []int{2, 4, 8, 16}, 10)
		for _, r := range rows {
			fmt.Printf("  p=%-3d %-10s collectives=%-5d modeled=%v\n",
				r.Procs, r.Strategy, r.Collectives, r.ModeledTime)
		}
	case "bulk":
		fmt.Println("ABLATION §IV-C: bulk batch count k vs sampling time")
		var rows []repro.BulkKRow
		rows, err = repro.BulkKAblation(ctx, o, []int{1, 2, 4, 8, 16})
		for _, r := range rows {
			fmt.Printf("  k=%-3d sampler_calls=%-4d sampling=%-14v training=%v\n",
				r.K, r.SamplerCalls, r.Sampling.Round(time.Microsecond), r.Training.Round(time.Microsecond))
		}
	case "fanout":
		fmt.Println("ABLATION: ShaDow depth d / fanout s vs quality and cost")
		var rows []repro.FanoutRow
		rows, err = repro.FanoutAblation(ctx, o, [][2]int{{1, 4}, {2, 4}, {3, 6}, {2, 8}, {3, 8}})
		for _, r := range rows {
			fmt.Printf("  d=%d s=%d  precision=%.4f recall=%.4f epoch=%v vertices/root=%.1f\n",
				r.Depth, r.Fanout, r.Precision, r.Recall, r.EpochTime.Round(time.Millisecond), r.AvgSubgraphVertices)
		}
	case "batchsize":
		fmt.Println("ABLATION: batch size vs generalization (Keskar et al. argument)")
		var rows []repro.BatchSizeRow
		rows, err = repro.BatchSizeAblation(ctx, o, []int{32, 64, 128, 256, 512})
		for _, r := range rows {
			fmt.Printf("  batch=%-4d steps/epoch=%-4d precision=%.4f recall=%.4f f1=%.4f\n",
				r.BatchSize, r.StepsPerEpoch, r.Precision, r.Recall, r.F1)
		}
	default:
		fmt.Println("unknown -exp; choose allreduce | bulk | fanout | batchsize")
	}
	if err != nil {
		log.Fatalf("interrupted: %v", err)
	}
}
