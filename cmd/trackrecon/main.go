// Command trackrecon trains the full pipeline on a generated dataset and
// reconstructs tracks on its held-out events concurrently, reporting
// edge and track metrics per event — the end-user workflow of the
// library. With -save it writes a checkpoint cmd/serve can load.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"repro/internal/detector"
	"repro/internal/metrics"
	"repro/internal/trackio"
	"repro/recon"
)

func main() {
	in := flag.String("i", "", "dataset path (from datagen); empty = generate ex3 @ 0.05")
	hidden := flag.Int("hidden", 16, "GNN hidden width")
	steps := flag.Int("steps", 3, "GNN message-passing layers")
	gnnEpochs := flag.Int("gnn-epochs", 20, "GNN training epochs")
	workers := flag.Int("workers", 4, "engine workers for held-out reconstruction")
	save := flag.String("save", "", "write the trained checkpoint here (load with cmd/serve -checkpoint)")
	saveInt8 := flag.String("save-int8", "", "write a quantized v4 checkpoint here: int8 weights plus activation scales calibrated on the training events (serve it with cmd/serve -precision i8)")
	seed := flag.Uint64("seed", 9, "seed")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var ds *detector.Dataset
	var err error
	if *in != "" {
		ds, err = trackio.Load(*in)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		spec := detector.Ex3Like(0.05)
		spec.NumEvents = 10
		ds = detector.Generate(spec, 42)
	}
	train, val, test := ds.Split(0.8, 0.1)
	fmt.Printf("dataset %s: %d train / %d val / %d test events\n",
		ds.Spec.Name, len(train), len(val), len(test))

	r, err := recon.New(ds.Spec,
		recon.WithGNN(*hidden, *steps),
		recon.WithGNNTraining(*gnnEpochs, 3e-3, 2.0),
		recon.WithSeed(*seed),
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("training the learned stages (embedding, filter, GNN)...")
	if err := r.Fit(ctx, train); err != nil {
		log.Fatal(err)
	}
	if *save != "" {
		if err := r.SaveCheckpoint(*save); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("checkpoint written to %s\n\n", *save)
	}
	if *saveInt8 != "" {
		// Fit retained the training events, so the export calibrates
		// activation scales on the same distribution the model trained on.
		if err := r.SaveCheckpointInt8(*saveInt8); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("int8 checkpoint written to %s\n\n", *saveInt8)
	}

	eng, err := recon.NewEngine(r, recon.WithWorkers(*workers))
	if err != nil {
		log.Fatal(err)
	}
	results, err := eng.ReconstructBatch(ctx, test)
	if err != nil {
		log.Fatal(err)
	}

	var agg metrics.BinaryCounts
	effSum, fakeSum := 0.0, 0.0
	for i, res := range results {
		agg.Merge(res.EdgeCounts)
		effSum += res.Match.Efficiency()
		fakeSum += res.Match.FakeRate()
		fmt.Printf("event %d: %3d candidates | edge P=%.3f R=%.3f | track eff=%.3f fake=%.3f\n",
			i, len(res.Tracks), res.EdgeCounts.Precision(), res.EdgeCounts.Recall(),
			res.Match.Efficiency(), res.Match.FakeRate())
	}
	n := float64(len(test))
	fmt.Printf("\noverall: edge P=%.3f R=%.3f | mean track eff=%.3f mean fake=%.3f\n",
		agg.Precision(), agg.Recall(), effSum/n, fakeSum/n)
}
