// Command serve runs the track-reconstruction HTTP front-end: a
// recon.Engine behind a JSON API, loading an optional checkpoint and
// serving concurrent requests with admission control, per-request
// deadlines, panic isolation, and graceful drain on SIGTERM.
//
// Endpoints:
//
//	POST /v1/reconstruct  {"events":[...]} and/or {"synthetic":{"count":1,"seed":7}},
//	                      as application/json or application/x-recon-bin (see
//	                      API.md "Wire format & micro-batching");
//	                      429 + Retry-After when the admission queue is full,
//	                      415 for unknown Content-Type, 413 over -max-body
//	GET  /healthz         liveness probe (503 while draining)
//	GET  /statz           p50/p90/p99 latency, throughput, queue depth,
//	                      rejected and panic-recovery counters
//
// Example smoke run (truth-level graphs make an untrained model produce
// meaningful tracks, since true edges dominate the constructed graph):
//
//	serve -addr :8080 -truth-graphs 1.0 -threshold 0
//	curl -X POST localhost:8080/v1/reconstruct \
//	  -H 'Content-Type: application/json' \
//	  -d '{"synthetic":{"count":1,"seed":7}}'
//
// The -chaos-* flags wrap every pipeline stage with deterministic fault
// injection (internal/faultinject) for resilience drills: the server
// must keep answering — per-event errors in 200 bodies, overload as
// 429s — while panics are recovered and counted in /statz.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/detector"
	"repro/internal/faultinject"
	"repro/recon"
)

// resolveQueueDepth folds the deprecated -queue alias into -queue-depth:
// either flag alone wins, both set to the same value is tolerated, and
// both set to different values is a hard conflict — there is exactly one
// validated queue-depth path after this returns.
func resolveQueueDepth(fs *flag.FlagSet, queueDepth, queue *int) error {
	var depthSet, aliasSet bool
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "queue-depth":
			depthSet = true
		case "queue":
			aliasSet = true
		}
	})
	if depthSet && aliasSet && *queueDepth != *queue {
		return fmt.Errorf("-queue is a deprecated alias for -queue-depth; both set with conflicting values %d and %d", *queue, *queueDepth)
	}
	if aliasSet && !depthSet {
		log.Printf("warning: -queue is deprecated, use -queue-depth")
		*queueDepth = *queue
	}
	if *queueDepth < 0 {
		return fmt.Errorf("-queue-depth must be ≥0, got %d", *queueDepth)
	}
	return nil
}

// checkServerLimits rejects a drain budget or body cap that
// recon.NewServer would otherwise replace with its default: a zero drain
// timeout would log "waiting up to 0s" and wait 10s, and a zero body cap
// would accept 8 MiB.
func checkServerLimits(drainTimeout time.Duration, maxBody int64) error {
	if drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout must be >0, got %v", drainTimeout)
	}
	if maxBody < 1 {
		return fmt.Errorf("-max-body must be ≥1, got %d", maxBody)
	}
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dataset := detector.Ex3
	flag.Var(&dataset, "dataset", "dataset `family` the models were built for: ex3 or ctd")
	scale := flag.Float64("scale", 0.05, "detector spec scale factor")
	checkpoint := flag.String("checkpoint", "", "checkpoint path (from trackrecon -save or SaveCheckpoint); empty = untrained models")
	workers := flag.Int("workers", 4, "engine worker-pool size")
	queueDepth := flag.Int("queue-depth", 8, "in-flight events admitted beyond the workers; excess requests get 429")
	queue := flag.Int("queue", 8, "deprecated alias for -queue-depth")
	hidden := flag.Int("hidden", 16, "GNN hidden width (must match the checkpoint)")
	steps := flag.Int("steps", 3, "GNN message-passing layers (must match the checkpoint)")
	threshold := flag.Float64("threshold", 0.5, "stage-4 edge decision threshold")
	truthGraphs := flag.Float64("truth-graphs", -1, "build truth-level graphs with this fake ratio instead of the learned stages 1-3 (<0 = off)")
	seed := flag.Uint64("seed", 1, "model initialization seed (must match the checkpoint)")
	precision := flag.String("precision", "f64", "inference precision for the built-in stages: f64, f32, or i8 (f32 halves kernel memory traffic; i8 is a storage format: weights round to the int8 grid, dequantize to float32 at load and run the f32 kernels; checkpoints of any dtype load)")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request reconstruction deadline (0 = none); expired batches answer 503")
	batchWindow := flag.Duration("batch-window", 0, "micro-batch coalescing window (0 = off): concurrent requests arriving within it merge into one engine batch")
	maxBatchEvents := flag.Int("max-batch-events", 16, "dispatch a micro-batch early once it holds this many events")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long SIGTERM waits for in-flight requests before a hard stop")
	maxBody := flag.Int64("max-body", 8<<20, "request body size cap in bytes (413 beyond it)")
	chaosSeed := flag.Uint64("chaos-seed", 1, "fault-injection decision seed")
	chaosError := flag.Float64("chaos-error", 0, "per-stage-call probability of an injected error")
	chaosPanic := flag.Float64("chaos-panic", 0, "per-stage-call probability of an injected panic")
	chaosDelayRate := flag.Float64("chaos-delay-rate", 0, "per-stage-call probability of an injected latency spike")
	chaosDelay := flag.Duration("chaos-delay", 5*time.Millisecond, "size of an injected latency spike")
	flag.Parse()

	if err := resolveQueueDepth(flag.CommandLine, queueDepth, queue); err != nil {
		log.Fatalf("serve: %v", err)
	}
	if err := checkServerLimits(*drainTimeout, *maxBody); err != nil {
		log.Fatalf("serve: %v", err)
	}

	prec, ok := recon.ParsePrecision(*precision)
	if !ok {
		log.Fatalf("serve: -precision must be f64, f32, or i8, got %q", *precision)
	}

	spec := dataset.Spec(*scale)

	opts := []recon.Option{
		recon.WithGNN(*hidden, *steps),
		recon.WithThreshold(*threshold),
		recon.WithSeed(*seed),
		recon.WithPrecision(prec),
	}
	if *truthGraphs >= 0 {
		opts = append(opts, recon.WithTruthLevelGraphs(*truthGraphs))
	}
	if *chaosError > 0 || *chaosPanic > 0 || *chaosDelayRate > 0 {
		inj, err := faultinject.New(faultinject.Config{
			Seed:      *chaosSeed,
			ErrorRate: *chaosError,
			PanicRate: *chaosPanic,
			DelayRate: *chaosDelayRate,
			Delay:     *chaosDelay,
		})
		if err != nil {
			log.Fatal(err)
		}
		opts = append(opts, recon.WithStageWrapper(inj))
		log.Printf("chaos mode: seed=%d error=%v panic=%v delay=%v/%v",
			*chaosSeed, *chaosError, *chaosPanic, *chaosDelayRate, *chaosDelay)
	}
	r, err := recon.New(spec, opts...)
	if err != nil {
		log.Fatal(err)
	}
	if *checkpoint != "" {
		if err := r.LoadCheckpoint(*checkpoint); err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded checkpoint %s", *checkpoint)
	}

	engOpts := []recon.Option{
		recon.WithWorkers(*workers),
		recon.WithQueueDepth(*queueDepth),
		recon.WithMaxBatchEvents(*maxBatchEvents),
	}
	if *requestTimeout > 0 {
		engOpts = append(engOpts, recon.WithRequestTimeout(*requestTimeout))
	}
	if *batchWindow > 0 {
		engOpts = append(engOpts, recon.WithBatchWindow(*batchWindow))
	}
	eng, err := recon.NewEngine(r, engOpts...)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Printf("draining: waiting up to %v for in-flight requests", *drainTimeout)
	}()

	log.Printf("serving %s-like reconstruction on %s (workers=%d queue-depth=%d threshold=%v precision=%s batch-window=%v)",
		spec.Name, *addr, *workers, *queueDepth, *threshold, prec, *batchWindow)
	srv := recon.NewServer(eng,
		recon.WithDrainTimeout(*drainTimeout),
		recon.WithMaxBodyBytes(*maxBody))
	if err := srv.Serve(ctx, *addr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	log.Printf("drain complete")
}
