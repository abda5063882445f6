// Command scaling sweeps the trainer across rank counts × bulk batch
// stacking × sync strategies and emits the paper's strong-scaling table
// (Figures 5–6 shape) as a BENCH-style JSON record: per-cell epoch wall
// time, sampling/training phase maxima, measured collective wait beside
// the modeled α–β collective time, charged calls and logical bytes, and
// the final loss.
//
// Two cross-cell checks are embedded in the record:
//
//   - parity_ok: every cell produced the bit-identical loss trajectory —
//     the determinism guarantee of recon.TrainDistributed observed over
//     the whole sweep.
//   - comm_claim_ok: at every P, coalesced and bucketed modeled
//     collective time ≤ per-matrix — the paper's §III-D claim under the
//     α–β model.
//
// Usage:
//
//	go run ./cmd/scaling -ranks 1,2,4 -bulk 1,4 -epochs 2 -out BENCH_3.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/pipeline"
	"repro/internal/sampling"
)

// CellResult is one sweep cell's measurement.
type CellResult struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"` // wall ns per epoch
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Record is the BENCH_*.json schema (see PERF.md).
type Record struct {
	SchemaVersion int          `json:"schema_version"`
	Date          string       `json:"date"`
	GoVersion     string       `json:"go_version"`
	GOOS          string       `json:"goos"`
	GOARCH        string       `json:"goarch"`
	MaxProcs      int          `json:"maxprocs"`
	Protocol      string       `json:"protocol"`
	Benchmarks    []CellResult `json:"benchmarks"`
	ParityOK      bool         `json:"parity_ok"`
	CommClaimOK   bool         `json:"comm_claim_ok"`
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			log.Fatalf("bad int list entry %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		log.Fatal("empty int list")
	}
	return out
}

func main() {
	ranksFlag := flag.String("ranks", "1,2,4", "comma-separated rank counts")
	bulkFlag := flag.String("bulk", "1,4", "comma-separated bulk batch counts k")
	strategiesFlag := flag.String("strategies", "permatrix,coalesced,bucketed", "sync strategies to sweep")
	epochs := flag.Int("epochs", 2, "epochs per cell")
	batch := flag.Int("batch", 64, "global batch size")
	hidden := flag.Int("hidden", 16, "GNN hidden width")
	steps := flag.Int("steps", 3, "GNN message-passing steps")
	events := flag.Int("events", 4, "synthetic events")
	scale := flag.Float64("scale", 0.02, "dataset scale")
	bucketBytes := flag.Int("bucket-bytes", 4096, "bucket cap for the bucketed strategy")
	gradBlocks := flag.Int("grad-blocks", 8, "canonical gradient micro-blocks per step")
	seed := flag.Uint64("seed", 7, "seed")
	out := flag.String("out", "", "write BENCH-style JSON to this path (empty: stdout only)")
	flag.Parse()

	ranks := parseInts(*ranksFlag)
	bulks := parseInts(*bulkFlag)
	strategies := map[string]repro.SyncStrategy{}
	var strategyOrder []string
	for _, s := range strings.Split(*strategiesFlag, ",") {
		switch strings.TrimSpace(s) {
		case "permatrix":
			strategies["permatrix"] = repro.PerMatrixSync
		case "coalesced":
			strategies["coalesced"] = repro.CoalescedSync
		case "bucketed":
			strategies["bucketed"] = repro.BucketedSync
		case "":
			continue
		default:
			log.Fatalf("unknown strategy %q", s)
		}
		strategyOrder = append(strategyOrder, strings.TrimSpace(s))
	}

	spec := repro.Ex3Like(*scale)
	spec.NumEvents = *events
	ds := repro.GenerateDataset(spec, 42)
	var graphs []*repro.EventGraph
	for i, ev := range ds.Events {
		graphs = append(graphs, pipeline.TruthLevelGraph(spec, ev, 1.5, uint64(200+i)))
	}
	gnn := repro.GNNConfig{
		NodeFeatures: spec.VertexFeatures,
		EdgeFeatures: spec.EdgeFeatures,
		Hidden:       *hidden,
		Steps:        *steps,
	}

	rec := Record{
		SchemaVersion: 1,
		Date:          time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		MaxProcs:      runtime.GOMAXPROCS(0),
		Protocol: fmt.Sprintf("cmd/scaling: ranks %v × bulk %v × strategies %v; %d epochs, batch %d, "+
			"hidden %d, steps %d, %d truth-level Ex3 events @ scale %v, grad-blocks %d, bucket-bytes %d, seed %d. "+
			"ns_per_op is measured wall time per epoch (host-core contention included; modeled comm excluded); "+
			"sampling_ns and training_ns are gated compute sections (max across ranks); "+
			"comm_wait_ns is the measured time in collectives (max across ranks); "+
			"comm_modeled_ns is the α–β ring time of the charged logical collectives.",
			ranks, bulks, strategyOrder, *epochs, *batch, *hidden, *steps, *events, *scale, *gradBlocks, *bucketBytes, *seed),
		ParityOK:    true,
		CommClaimOK: true,
	}

	ctx := context.Background()
	var refTrajectory []float64
	modeledByP := map[int]map[string]float64{}

	for _, P := range ranks {
		modeledByP[P] = map[string]float64{}
		for _, stratName := range strategyOrder {
			for _, k := range bulks {
				cfg := repro.DefaultTrainerConfig(gnn)
				cfg.Epochs = *epochs
				cfg.BatchSize = *batch
				cfg.Shadow = sampling.Config{Depth: 2, Fanout: 4}
				cfg.LR = 3e-3
				cfg.Ranks = P
				cfg.Strategy = strategies[stratName]
				cfg.BucketBytes = *bucketBytes
				cfg.BulkBatches = k
				cfg.GradBlocks = *gradBlocks
				cfg.Seed = *seed
				tr, err := repro.NewTrainer(cfg)
				if err != nil {
					log.Fatal(err)
				}

				var trajectory []float64
				var sampT, trainT, commModeled, commWait time.Duration
				var stepCount int
				start := time.Now()
				for e := 0; e < *epochs; e++ {
					stats, err := tr.TrainEpoch(ctx, graphs)
					if err != nil {
						log.Fatal(err)
					}
					trajectory = append(trajectory, stats.StepLosses...)
					sampT += stats.Timer.Get("Sampling")
					trainT += stats.Timer.Get("Training")
					commModeled += stats.Comm.Modeled
					commWait += stats.CommWait
					stepCount += stats.Steps
				}
				wall := time.Since(start)
				cs := tr.CommStats()
				tr.Close()
				if len(trajectory) == 0 {
					log.Fatalf("%s: sweep produced no optimizer steps — dataset too small for the configured batch size", fmt.Sprintf("Scaling_P%d_k%d_%s", P, k, stratName))
				}

				if refTrajectory == nil {
					refTrajectory = trajectory
				} else if !equal(refTrajectory, trajectory) {
					rec.ParityOK = false
				}
				modeledByP[P][stratName] += float64(commModeled)

				name := fmt.Sprintf("Scaling_P%d_k%d_%s", P, k, stratName)
				cell := CellResult{
					Name:       name,
					Iterations: *epochs,
					NsPerOp:    float64(wall.Nanoseconds()) / float64(*epochs),
					Metrics: map[string]float64{
						"steps_per_epoch": float64(stepCount) / float64(*epochs),
						"sampling_ns":     float64(sampT.Nanoseconds()) / float64(*epochs),
						"training_ns":     float64(trainT.Nanoseconds()) / float64(*epochs),
						"comm_modeled_ns": float64(commModeled.Nanoseconds()) / float64(*epochs),
						"comm_wait_ns":    float64(commWait.Nanoseconds()) / float64(*epochs),
						// Run totals (across all epochs, including the
						// one-time weight broadcast), unlike the per-epoch
						// *_ns siblings.
						"comm_calls_total":         float64(cs.Calls),
						"comm_logical_bytes_total": float64(cs.LogicalBytes),
						"buckets_per_step":         float64(tr.NumBuckets()),
						"final_loss":               trajectory[len(trajectory)-1],
						"ranks":                    float64(P),
						"bulk_batches":             float64(k),
						"events":                   float64(len(graphs)),
						"trajectory_identity":      boolMetric(refTrajectory != nil && equal(refTrajectory, trajectory)),
					},
				}
				rec.Benchmarks = append(rec.Benchmarks, cell)
				fmt.Printf("%-34s epoch=%8.2fms sampling=%7.2fms training=%8.2fms comm=%9.3fµs wait=%8.2fms calls=%4d loss=%.6f\n",
					name, ms(cell.NsPerOp), ms(cell.Metrics["sampling_ns"]), ms(cell.Metrics["training_ns"]),
					cell.Metrics["comm_modeled_ns"]/1e3, ms(cell.Metrics["comm_wait_ns"]), cs.Calls, cell.Metrics["final_loss"])
			}
		}
		if pm, ok := modeledByP[P]["permatrix"]; ok {
			for _, s := range []string{"coalesced", "bucketed"} {
				if v, ok := modeledByP[P][s]; ok && v > pm {
					rec.CommClaimOK = false
				}
			}
		}
	}

	fmt.Printf("\nparity_ok=%v comm_claim_ok=%v\n", rec.ParityOK, rec.CommClaimOK)
	if !rec.ParityOK || !rec.CommClaimOK {
		defer os.Exit(1)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&rec); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", *out)
	}
}

func ms(ns float64) float64 { return ns / 1e6 }

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
