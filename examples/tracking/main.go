// Command tracking runs the full five-stage Exa.TrkX pipeline on a
// CTD-like workload — the dense LHC tracking scenario that motivates the
// paper — through the recon API, reporting per-stage graph quality,
// final track metrics, and multi-worker engine throughput.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/detector"
	"repro/recon"
)

func main() {
	ctx := context.Background()

	// CTD-like events: 14 hit features, 8 edge features, denser tracks.
	spec := detector.CTDLike(0.0025) // ~80 particles/event at laptop scale
	spec.NumEvents = 8
	ds := detector.Generate(spec, 17)
	train, val, test := ds.Split(0.75, 0.125)
	stats := ds.ComputeStats()
	fmt.Printf("=== %s-like workload ===\n", spec.Name)
	fmt.Printf("events=%d avg_hits=%.0f avg_truth_edges=%.0f features=%d/%d\n\n",
		stats.Graphs, stats.AvgVertices, stats.AvgTruthEdges,
		stats.VertexFeatures, stats.EdgeFeatures)

	r, err := recon.New(spec,
		recon.WithGNN(24, 3),
		recon.WithGNNTraining(15, 3e-3, 2.0),
		recon.WithSeed(5),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Train all learned stages (embedding, filter, GNN).
	fmt.Println("training the learned stages...")
	if err := r.Fit(ctx, train); err != nil {
		log.Fatal(err)
	}
	for _, ev := range val {
		eg, err := r.BuildGraph(ctx, ev)
		if err != nil {
			log.Fatal(err)
		}
		eff, pur := eg.GraphQuality()
		fmt.Printf("  built graph: %d vertices %d edges, edge efficiency=%.3f purity=%.3f\n",
			eg.NumVertices(), eg.NumEdges(), eff, pur)
	}

	// Held-out reconstruction, concurrently through the engine.
	fmt.Println("\n=== held-out reconstruction (engine, 4 workers) ===")
	eng, err := recon.NewEngine(r, recon.WithWorkers(4))
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	results, err := eng.ReconstructBatch(ctx, test)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	for i, res := range results {
		fmt.Printf("event %d: %d candidates | edge P=%.3f R=%.3f | track eff=%.3f fake=%.3f\n",
			i, len(res.Tracks),
			res.EdgeCounts.Precision(), res.EdgeCounts.Recall(),
			res.Match.Efficiency(), res.Match.FakeRate())
	}
	fmt.Printf("\nbatch of %d events in %v (%.1f events/s)\n",
		len(test), elapsed.Round(time.Millisecond),
		float64(len(test))/elapsed.Seconds())
}
