// Command datagen generates a synthetic dataset and writes it to disk
// for use by trackrecon and trainpipe. The same spec flags (-dataset,
// -scale) configure cmd/serve, which must match the checkpoint it loads.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro"
	"repro/internal/detector"
)

func main() {
	dataset := detector.Ex3
	flag.Var(&dataset, "dataset", "dataset `family`: ex3 or ctd")
	scale := flag.Float64("scale", 0.05, "scale factor (1 = paper size)")
	events := flag.Int("events", 20, "number of events")
	seed := flag.Uint64("seed", 42, "generation seed")
	out := flag.String("o", "dataset.gob.gz", "output path")
	flag.Parse()

	spec := dataset.Spec(*scale)
	spec.NumEvents = *events
	ds := repro.GenerateDataset(spec, *seed)
	if err := repro.SaveDataset(*out, ds); err != nil {
		log.Fatal(err)
	}
	st := ds.ComputeStats()
	fmt.Printf("wrote %s: %d %s-like events, avg %.0f hits and %.0f truth edges per event\n",
		*out, st.Graphs, st.Name, st.AvgVertices, st.AvgTruthEdges)
}
