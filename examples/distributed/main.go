// Command distributed demonstrates the paper's distributed-training
// optimizations: GNN training sharded across simulated GPUs with ShaDow
// minibatch sampling, comparing the PyG-style baseline (sequential
// per-batch sampling + per-matrix all-reduce) against the paper's
// pipeline (matrix-based bulk sampling + coalesced all-reduce). Ctrl-C
// cancels the sweep and prints whatever rows completed.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"

	"repro/internal/experiments"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	o := experiments.Options{
		Scale:  0.03,
		Events: 6,
		Hidden: 16,
		Steps:  3,
	}

	fmt.Println("=== epoch time across simulated GPU counts (Figure 3 shape) ===")
	rows, err := experiments.RunFigure3Context(ctx, o, []int{1, 2, 4})
	for _, r := range rows {
		fmt.Println(" ", r)
	}
	if err != nil {
		log.Fatalf("sweep interrupted: %v", err)
	}
	fmt.Println("\nspeedup of ours vs PyG baseline:")
	for p, s := range experiments.Speedups(rows) {
		fmt.Printf("  p=%d: %.2fx\n", p, s)
	}

	fmt.Println("\n=== all-reduce strategies (§III-D) ===")
	arRows, err := experiments.RunAllReduceAblationContext(ctx, o, []int{2, 4, 8}, 10)
	for _, r := range arRows {
		fmt.Printf("  p=%-2d %-10s collectives=%-4d modeled=%v\n",
			r.Procs, r.Strategy, r.Collectives, r.ModeledTime)
	}
	if err != nil {
		log.Fatalf("ablation interrupted: %v", err)
	}
}
