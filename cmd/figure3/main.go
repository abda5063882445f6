// Command figure3 regenerates Figure 3 of the paper: epoch time across
// simulated GPU counts, split into Sampling / Training / AllReduce, for
// the PyG-style baseline (sequential per-batch ShaDow, per-matrix
// all-reduce) and our implementation (matrix-based bulk sampling,
// coalesced all-reduce).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"repro"
)

func main() {
	dataset := flag.String("dataset", "ex3", "dataset family: ex3 or ctd")
	scale := flag.Float64("scale", 0.05, "dataset scale factor")
	events := flag.Int("events", 6, "training event graphs")
	hidden := flag.Int("hidden", 16, "GNN hidden width (paper: 64)")
	steps := flag.Int("steps", 3, "GNN message-passing layers (paper: 8)")
	batch := flag.Int("batch", 256, "global batch size (paper: 256)")
	procsFlag := flag.String("procs", "", "comma-separated process counts (default per dataset)")
	overhead := flag.Duration("sampler-overhead", 15*time.Millisecond,
		"modelled per-invocation sampler launch overhead (calibration in PERF.md, \"Figure 3 timing model\")")
	seed := flag.Uint64("seed", 7, "seed")
	flag.Parse()

	var procs []int
	if *procsFlag == "" {
		if *dataset == "ctd" {
			procs = []int{4, 8, 16} // the paper's CTD sweep
		} else {
			procs = []int{1, 4, 8} // the paper's Ex3 sweep
		}
	} else {
		for _, tok := range strings.Split(*procsFlag, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				fmt.Println("bad -procs:", err)
				return
			}
			procs = append(procs, p)
		}
	}

	o := repro.ExperimentOptions{
		Dataset:         *dataset,
		Scale:           *scale,
		Events:          *events,
		Hidden:          *hidden,
		Steps:           *steps,
		BatchSize:       *batch,
		Seed:            *seed,
		SamplerOverhead: *overhead,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Printf("FIGURE 3: epoch time, dataset=%s scale=%v procs=%v\n", *dataset, *scale, procs)
	fmt.Println("(measured compute sections under a modelled device clock; see \"Timing\" in internal/dtrain)")
	rows, err := repro.Figure3(ctx, o, procs)
	for _, r := range rows {
		fmt.Println(" ", r)
	}
	if err != nil {
		fmt.Println("interrupted:", err)
		return
	}
	fmt.Println("\nspeedup (PyG / Ours):")
	for _, p := range procs {
		if s, ok := repro.Figure3Speedups(rows)[p]; ok {
			fmt.Printf("  p=%-2d %.2fx\n", p, s)
		}
	}
}
