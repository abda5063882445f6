package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/sampling"
)

// cellResult is one sweep cell's measurement.
type cellResult struct {
	Name       string             `json:"name"`
	Iterations int                `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"` // wall ns per epoch
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// scalingRecord is the sweep's JSON record: one row per cell in the
// shape of a `go test -bench` result, plus the two cross-cell checks.
type scalingRecord struct {
	SchemaVersion int          `json:"schema_version"`
	Date          string       `json:"date"`
	GoVersion     string       `json:"go_version"`
	GOOS          string       `json:"goos"`
	GOARCH        string       `json:"goarch"`
	MaxProcs      int          `json:"maxprocs"`
	Protocol      string       `json:"protocol"`
	Benchmarks    []cellResult `json:"benchmarks"`
	ParityOK      bool         `json:"parity_ok"`
	CommClaimOK   bool         `json:"comm_claim_ok"`
}

// scaling sweeps the trainer across rank counts × bulk batch stacking ×
// sync strategies and emits the paper's strong-scaling table (Figures
// 5–6 shape) as a JSON record: per-cell epoch wall time,
// sampling/training phase maxima, measured collective wait beside the
// modeled α–β collective time, charged calls and logical bytes, and the
// final loss.
//
// Two cross-cell checks are embedded in the record, and the run fails
// when either does not hold:
//
//   - parity_ok: every cell produced the bit-identical loss trajectory —
//     the determinism guarantee of recon.TrainDistributed observed over
//     the whole sweep.
//   - comm_claim_ok: at every P, coalesced modeled collective time ≤
//     per-matrix — the paper's §III-D claim under the α–β model.
//
// Usage:
//
//	go run ./cmd/repro scaling -ranks 1,2,4 -bulk 1,4 -epochs 2 -out scaling.json
func scaling(fs *flag.FlagSet) func(context.Context, io.Writer) error {
	ranksFlag := fs.String("ranks", "1,2,4", "comma-separated rank counts")
	bulkFlag := fs.String("bulk", "1,4", "comma-separated bulk batch counts k")
	strategiesFlag := fs.String("strategies", "permatrix,coalesced", "sync strategies to sweep")
	epochs := fs.Int("epochs", 2, "epochs per cell")
	batch := fs.Int("batch", 64, "global batch size")
	hidden := fs.Int("hidden", 16, "GNN hidden width")
	steps := fs.Int("steps", 3, "GNN message-passing steps")
	events := fs.Int("events", 4, "synthetic events")
	scale := fs.Float64("scale", 0.02, "dataset scale")
	gradBlocks := fs.Int("grad-blocks", 8, "canonical gradient micro-blocks per step")
	seed := fs.Uint64("seed", 7, "seed")
	out := fs.String("out", "", "write the JSON record to this path (empty: stdout only)")
	return func(ctx context.Context, w io.Writer) error {
		ranks, err := parseInts("ranks", *ranksFlag)
		if err != nil {
			return err
		}
		bulks, err := parseInts("bulk", *bulkFlag)
		if err != nil {
			return err
		}
		strategies := map[string]repro.SyncStrategy{}
		var strategyOrder []string
		for _, s := range strings.Split(*strategiesFlag, ",") {
			s = strings.TrimSpace(s)
			if s == "" {
				continue
			}
			if strategies[s], err = parseSync(s); err != nil {
				return err
			}
			strategyOrder = append(strategyOrder, s)
		}
		if len(strategyOrder) == 0 {
			return usagef("empty -strategies list")
		}

		spec := repro.Ex3Like(*scale)
		spec.NumEvents = *events
		ds := repro.GenerateDataset(spec, 42)
		var graphs []*repro.EventGraph
		for i, ev := range ds.Events {
			graphs = append(graphs, pipeline.TruthLevelGraph(spec, ev, 1.5, uint64(200+i)))
		}
		gnn := gnnConfig(spec, *hidden, *steps)

		rec := scalingRecord{
			SchemaVersion: 1,
			Date:          time.Now().UTC().Format(time.RFC3339),
			GoVersion:     runtime.Version(),
			GOOS:          runtime.GOOS,
			GOARCH:        runtime.GOARCH,
			MaxProcs:      runtime.GOMAXPROCS(0),
			Protocol: fmt.Sprintf("repro scaling: ranks %v × bulk %v × strategies %v; %d epochs, batch %d, "+
				"hidden %d, steps %d, %d truth-level Ex3 events @ scale %v, grad-blocks %d, seed %d. "+
				"ns_per_op is measured wall time per epoch (host-core contention included; modeled comm excluded); "+
				"sampling_ns and training_ns are gated compute sections (max across ranks); "+
				"comm_wait_ns is the measured time in collectives (max across ranks); "+
				"comm_modeled_ns is the α–β ring time of the charged logical collectives.",
				ranks, bulks, strategyOrder, *epochs, *batch, *hidden, *steps, *events, *scale, *gradBlocks, *seed),
			ParityOK:    true,
			CommClaimOK: true,
		}

		var refTrajectory []float64
		modeledByP := map[int]map[string]float64{}
		for _, P := range ranks {
			modeledByP[P] = map[string]float64{}
			for _, stratName := range strategyOrder {
				for _, k := range bulks {
					name := fmt.Sprintf("Scaling_P%d_k%d_%s", P, k, stratName)
					cfg := repro.DefaultTrainerConfig(gnn)
					cfg.Epochs = *epochs
					cfg.BatchSize = *batch
					cfg.Shadow = sampling.Config{Depth: 2, Fanout: 4}
					cfg.LR = 3e-3
					cfg.Ranks = P
					cfg.Strategy = strategies[stratName]
					cfg.BulkBatches = k
					cfg.GradBlocks = *gradBlocks
					cfg.Seed = *seed
					cell, trajectory, err := scalingCell(ctx, cfg, graphs)
					if err != nil {
						return fmt.Errorf("%s: %w", name, err)
					}
					cell.Name = name

					if refTrajectory == nil {
						refTrajectory = trajectory
					} else if !slices.Equal(refTrajectory, trajectory) {
						rec.ParityOK = false
					}
					cell.Metrics["trajectory_identity"] = boolMetric(slices.Equal(refTrajectory, trajectory))
					modeledByP[P][stratName] += cell.Metrics["comm_modeled_ns"]
					rec.Benchmarks = append(rec.Benchmarks, cell)
					fmt.Fprintf(w, "%-34s epoch=%8.2fms sampling=%7.2fms training=%8.2fms comm=%9.3fµs wait=%8.2fms calls=%4d loss=%.6f\n",
						name, ms(cell.NsPerOp), ms(cell.Metrics["sampling_ns"]), ms(cell.Metrics["training_ns"]),
						cell.Metrics["comm_modeled_ns"]/1e3, ms(cell.Metrics["comm_wait_ns"]),
						int64(cell.Metrics["comm_calls_total"]), cell.Metrics["final_loss"])
				}
			}
			pm, okP := modeledByP[P]["permatrix"]
			if c, okC := modeledByP[P]["coalesced"]; okP && okC && c > pm {
				rec.CommClaimOK = false
			}
		}

		fmt.Fprintf(w, "\nparity_ok=%v comm_claim_ok=%v\n", rec.ParityOK, rec.CommClaimOK)
		if *out != "" {
			js, err := json.MarshalIndent(&rec, "", "  ")
			if err == nil {
				err = os.WriteFile(*out, append(js, '\n'), 0o666)
			}
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "wrote", *out)
		}
		if !rec.ParityOK || !rec.CommClaimOK {
			return errors.New("a cross-cell check failed")
		}
		return nil
	}
}

// scalingCell trains one sweep cell for cfg.Epochs epochs and returns
// its per-epoch measurements with the loss trajectory of every step.
func scalingCell(ctx context.Context, cfg repro.TrainerConfig, graphs []*repro.EventGraph) (cellResult, []float64, error) {
	tr, err := repro.NewTrainer(cfg)
	if err != nil {
		return cellResult{}, nil, err
	}
	defer tr.Close()
	var trajectory []float64
	var sampT, trainT, commModeled, commWait time.Duration
	var stepCount int
	start := time.Now()
	for e := 0; e < cfg.Epochs; e++ {
		stats, err := tr.TrainEpoch(ctx, graphs)
		if err != nil {
			return cellResult{}, nil, err
		}
		trajectory = append(trajectory, stats.StepLosses...)
		sampT += stats.Timer.Get(metrics.PhaseSampling)
		trainT += stats.Timer.Get(metrics.PhaseTraining)
		commModeled += stats.Comm.Modeled
		commWait += stats.CommWait
		stepCount += stats.Steps
	}
	wall := time.Since(start)
	cs := tr.CommStats()
	if len(trajectory) == 0 {
		return cellResult{}, nil, errors.New("sweep produced no optimizer steps — dataset too small for the configured batch size")
	}
	epochs := float64(cfg.Epochs)
	return cellResult{
		Iterations: cfg.Epochs,
		NsPerOp:    float64(wall.Nanoseconds()) / epochs,
		Metrics: map[string]float64{
			"steps_per_epoch": float64(stepCount) / epochs,
			"sampling_ns":     float64(sampT.Nanoseconds()) / epochs,
			"training_ns":     float64(trainT.Nanoseconds()) / epochs,
			"comm_modeled_ns": float64(commModeled.Nanoseconds()) / epochs,
			"comm_wait_ns":    float64(commWait.Nanoseconds()) / epochs,
			// Run totals (across all epochs, including the one-time
			// weight broadcast), unlike the per-epoch *_ns siblings.
			"comm_calls_total":         float64(cs.Calls),
			"comm_logical_bytes_total": float64(cs.LogicalBytes),
			"buckets_per_step":         float64(tr.NumBuckets()),
			"final_loss":               trajectory[len(trajectory)-1],
			"ranks":                    float64(cfg.Ranks),
			"bulk_batches":             float64(cfg.BulkBatches),
			"events":                   float64(len(graphs)),
		},
	}, trajectory, nil
}

func ms(ns float64) float64 { return ns / 1e6 }

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
