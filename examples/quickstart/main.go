// Command quickstart is the smallest end-to-end use of the library:
// simulate collision events, compose a reconstructor from the recon
// package, train its learned stages, and reconstruct particle tracks
// on a held-out event.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/recon"
)

func main() {
	ctx := context.Background()

	// 1. Simulate a small Ex3-like dataset: 10 events, ~60 particles each.
	spec := repro.Ex3Like(0.05)
	spec.NumEvents = 10
	ds := repro.GenerateDataset(spec, 42)
	train, _, test := ds.Split(0.8, 0.1)
	fmt.Printf("dataset %s: %d events, %.0f hits/event on average\n",
		spec.Name, len(ds.Events), ds.ComputeStats().AvgVertices)

	// 2. Compose the five-stage reconstructor. Functional options replace
	// the old nested config structs: here we shrink the GNN to laptop
	// scale and pin the deterministic initialization seed. Any stage can
	// be swapped (recon.WithTruthLevelGraphs, recon.WithoutEdgeFilter,
	// recon.WithEdgeClassifier, ...).
	r, err := recon.New(spec,
		recon.WithGNN(16, 3),
		recon.WithGNNTraining(20, 3e-3, 2.0),
		recon.WithSeed(7),
	)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Fit trains every learned stage: the embedding MLP, the edge
	// filter on radius graphs in the trained embedding space, and the
	// Interaction GNN on the graphs the configured builder produces. The
	// context cancels long runs cooperatively.
	if err := r.Fit(ctx, train); err != nil {
		log.Fatal(err)
	}
	fmt.Println("learned stages trained")

	// 4. Reconstruct tracks on the held-out event (stages 1-5). For
	// batches and streams, wrap the reconstructor in a recon.Engine with
	// recon.WithWorkers(n) — results are bit-identical to this serial
	// call at any worker count.
	res, err := r.Reconstruct(ctx, test[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reconstructed %d track candidates\n", len(res.Tracks))
	fmt.Printf("edge classification: precision=%.3f recall=%.3f\n",
		res.EdgeCounts.Precision(), res.EdgeCounts.Recall())
	fmt.Printf("track finding: efficiency=%.3f fake rate=%.3f\n",
		res.Match.Efficiency(), res.Match.FakeRate())

	// 5. Serve the same trained model at float32: the weights convert
	// once, every per-event kernel then moves half the bytes, and the
	// track metrics match f64 within the documented tolerance (API.md
	// "Precision"). The checkpoint round-trip mirrors how cmd/serve
	// -precision f32 deploys a model trained elsewhere.
	ckpt := "quickstart.ckpt.gz"
	if err := r.SaveCheckpoint(ckpt); err != nil {
		log.Fatal(err)
	}
	r32, err := recon.New(spec,
		recon.WithGNN(16, 3),
		recon.WithSeed(7),
		recon.WithPrecision(recon.Float32),
	)
	if err != nil {
		log.Fatal(err)
	}
	if err := r32.LoadCheckpoint(ckpt); err != nil {
		log.Fatal(err)
	}
	res32, err := r32.Reconstruct(ctx, test[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("float32 serving path: %d tracks, efficiency=%.3f (f64: %.3f)\n",
		len(res32.Tracks), res32.Match.Efficiency(), res.Match.Efficiency())
}
