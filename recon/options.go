package recon

import (
	"fmt"
	"math"
	"time"

	"repro/internal/ddp"
)

// settings collects everything the functional options control. The
// zero-ish defaults come from pipeline.DefaultConfig for the model
// hyperparameters and from sensible engine defaults for execution.
type settings struct {
	// Stage hyperparameters (override pipeline.DefaultConfig).
	gnnThreshold *float64
	gnnHidden    *int
	gnnSteps     *int
	truthLevel   bool
	truthRatio   float64
	seed         uint64
	precision    Precision

	// The stage-4 implementation that replaces the GNN, if any.
	classifier EdgeClassifier

	// Fit knobs for the GNN stage.
	gnnEpochs    int
	gnnLR        float64
	gnnPosWeight float64

	// Engine execution knobs.
	workers        int
	queueDepth     int
	requestTimeout time.Duration
	batchWindow    time.Duration
	maxBatchEvents int

	// Server robustness knobs.
	drainTimeout time.Duration
	maxBodyBytes int64

	// Stage middleware (fault injection, tracing).
	wrapper StageWrapper

	// Distributed-training knobs (TrainDistributed).
	ranks       int
	bulkBatches int
	sync        ddp.SyncStrategy
	batchSize   int

	err error
}

func defaultSettings() settings {
	return settings{
		seed:           1,
		gnnEpochs:      20,
		gnnLR:          3e-3,
		gnnPosWeight:   2.0,
		workers:        1,
		queueDepth:     2,
		maxBatchEvents: 16,
		drainTimeout:   10 * time.Second,
		maxBodyBytes:   8 << 20,
		ranks:          1,
		bulkBatches:    4,
		sync:           ddp.Coalesced,
		batchSize:      64,
	}
}

// Option configures a Reconstructor or an Engine. Options that do not
// apply to the receiving constructor are ignored, so one option list can
// configure both.
type Option func(*settings)

// fail records the first invalid option; New/NewEngine surface it.
func (s *settings) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("recon: %s", fmt.Sprintf(format, args...))
	}
}

// WithTruthLevelGraphs replaces the learned stages 1–3 with truth-level
// graphs: ground-truth edges plus ratio random fake edges per true
// edge, with no edge filter. This is the shortcut the paper's GNN-stage
// experiments use (Figures 3 and 4) to decouple GNN quality from
// upstream tuning; it also skips the embedding computation entirely.
func WithTruthLevelGraphs(ratio float64) Option {
	return func(s *settings) {
		if !(ratio >= 0) || math.IsInf(ratio, 1) {
			s.fail("WithTruthLevelGraphs: ratio must be finite and ≥0, got %v", ratio)
			return
		}
		s.truthLevel = true
		s.truthRatio = ratio
	}
}

// WithThreshold sets the stage-4 decision threshold: edges scored at or
// above it survive to track building. NaN, which would keep no edge,
// is rejected.
func WithThreshold(t float64) Option {
	return func(s *settings) {
		if math.IsNaN(t) {
			s.fail("WithThreshold: threshold is NaN")
			return
		}
		s.gnnThreshold = &t
	}
}

// WithGNN sets the Interaction GNN's hidden width and message-passing
// step count (paper: 64 and 8; defaults are laptop-scale).
func WithGNN(hidden, steps int) Option {
	return func(s *settings) {
		if hidden < 1 || steps < 1 {
			s.fail("WithGNN: hidden and steps must be ≥1, got %d/%d", hidden, steps)
			return
		}
		s.gnnHidden = &hidden
		s.gnnSteps = &steps
	}
}

// WithSeed sets the deterministic initialization seed for the learned
// stages (and the base seed for truth-level graph fakes).
func WithSeed(seed uint64) Option {
	return func(s *settings) { s.seed = seed }
}

// WithGNNTraining sets the Fit hyperparameters for the GNN stage:
// epochs, learning rate, and positive-class weight.
func WithGNNTraining(epochs int, lr, posWeight float64) Option {
	return func(s *settings) {
		if epochs < 1 || !(lr > 0) || math.IsInf(lr, 1) {
			s.fail("WithGNNTraining: need epochs ≥1 and a finite lr > 0, got %d/%v", epochs, lr)
			return
		}
		if !(posWeight >= 0) || math.IsInf(posWeight, 1) {
			s.fail("WithGNNTraining: need a finite posWeight ≥0, got %v", posWeight)
			return
		}
		s.gnnEpochs = epochs
		s.gnnLR = lr
		s.gnnPosWeight = posWeight
	}
}

// WithEdgeClassifier replaces the GNN as stage 4, for example with the
// classifier TrainDistributed returns. Fit then trains stages 1–3 only,
// and checkpoints hold the classifier's parameters in the GNN's place
// if it implements Parameterized.
func WithEdgeClassifier(c EdgeClassifier) Option {
	return func(s *settings) { s.classifier = c }
}

// WithWorkers sets the engine's worker-pool size. Each worker pins one
// workspace arena and processes whole events; n=1 degenerates to serial
// execution. Results are bit-identical at any worker count.
func WithWorkers(n int) Option {
	return func(s *settings) {
		if n < 1 {
			s.fail("WithWorkers: need ≥1, got %d", n)
			return
		}
		s.workers = n
	}
}

// WithQueueDepth bounds the engine's in-flight events beyond the worker
// count: while other work runs, a call that would push past
// workers+depth events is rejected with ErrOverloaded.
func WithQueueDepth(n int) Option {
	return func(s *settings) {
		if n < 0 {
			s.fail("WithQueueDepth: need ≥0, got %d", n)
			return
		}
		s.queueDepth = n
	}
}

// WithBatchWindow enables request micro-batching on the engine's
// coalesced entry point (ReconstructCoalesced, which the HTTP server
// uses): concurrently-arriving requests are merged into one engine
// batch, amortizing per-dispatch overhead the same way bulk sampling
// amortizes training. The first request to arrive opens a batch and
// waits at most d for company; the batch dispatches early once it holds
// WithMaxBatchEvents events. Because every event is an independent,
// deterministic unit of work, coalescing never changes a result bit —
// it only trades up to d of added latency for throughput. 0 (the
// default) disables coalescing; ReconstructCoalesced then degenerates
// to ReconstructBatch.
func WithBatchWindow(d time.Duration) Option {
	return func(s *settings) {
		if d < 0 {
			s.fail("WithBatchWindow: need ≥0, got %v", d)
			return
		}
		s.batchWindow = d
	}
}

// WithMaxBatchEvents caps how many events a micro-batch accumulates
// before dispatching early, without waiting out the batch window
// (default 16). A single oversized request still dispatches whole.
func WithMaxBatchEvents(n int) Option {
	return func(s *settings) {
		if n < 1 {
			s.fail("WithMaxBatchEvents: need ≥1, got %d", n)
			return
		}
		s.maxBatchEvents = n
	}
}

// WithRequestTimeout puts a per-request deadline on the engine's entry
// points: each ReconstructBatch or ReconstructCoalesced call runs
// under a context that expires after d, propagated into every stage
// call, so one slow or wedged event cannot hold a worker forever. The
// deadline composes with the caller's context (whichever expires first
// wins). 0 (the default) disables the engine-level deadline.
func WithRequestTimeout(d time.Duration) Option {
	return func(s *settings) {
		if d < 0 {
			s.fail("WithRequestTimeout: need ≥0, got %v", d)
			return
		}
		s.requestTimeout = d
	}
}

// WithDrainTimeout bounds how long Server.Serve waits for in-flight
// requests after its context is cancelled (SIGTERM in cmd/serve) before
// giving up on the stragglers. Default 10s.
func WithDrainTimeout(d time.Duration) Option {
	return func(s *settings) {
		if d <= 0 {
			s.fail("WithDrainTimeout: need >0, got %v", d)
			return
		}
		s.drainTimeout = d
	}
}

// WithMaxBodyBytes caps the accepted request body size on the server
// (default 8 MiB); larger bodies are rejected with HTTP 413 before
// decoding.
func WithMaxBodyBytes(n int64) Option {
	return func(s *settings) {
		if n < 1 {
			s.fail("WithMaxBodyBytes: need ≥1, got %d", n)
			return
		}
		s.maxBodyBytes = n
	}
}

// StageWrapper is middleware over the five assembled stages — the seam
// the fault-injection harness (internal/faultinject) and tracing hook
// into. Each Wrap method receives the stage the Reconstructor resolved
// and returns the stage to run; returning the argument unchanged is a
// no-op.
type StageWrapper interface {
	WrapEmbedder(Embedder) Embedder
	WrapGraphBuilder(GraphBuilder) GraphBuilder
	WrapEdgeFilter(EdgeFilter) EdgeFilter
	WrapEdgeClassifier(EdgeClassifier) EdgeClassifier
	WrapTrackExtractor(TrackExtractor) TrackExtractor
}

// WithStageWrapper installs middleware around all five stages once
// they are resolved. Wrapped stages run under the
// same panic isolation as any other stage implementation.
func WithStageWrapper(w StageWrapper) Option {
	return func(s *settings) { s.wrapper = w }
}

// WithRanks sets the number of simulated DDP ranks P for
// TrainDistributed. The trained model is bit-identical at every P.
func WithRanks(p int) Option {
	return func(s *settings) {
		if p < 1 {
			s.fail("WithRanks: need ≥1, got %d", p)
			return
		}
		s.ranks = p
	}
}

// WithBulkBatches sets k, the number of consecutive batches stacked into
// one bulk matrix-sampler invocation per rank — the paper's utilization
// optimization. A pure performance knob: results are bit-identical at
// every k.
func WithBulkBatches(k int) Option {
	return func(s *settings) {
		if k < 1 {
			s.fail("WithBulkBatches: need ≥1, got %d", k)
			return
		}
		s.bulkBatches = k
	}
}

// WithSyncStrategy selects how TrainDistributed synchronizes gradients:
// CoalescedSync (the paper's optimization, the default) or the per-matrix
// baseline.
// The strategy changes which collectives are issued and charged, never
// the numbers.
func WithSyncStrategy(strategy SyncStrategy) Option {
	return func(s *settings) {
		switch strategy {
		case ddp.PerMatrix, ddp.Coalesced:
			s.sync = strategy
		default:
			s.fail("WithSyncStrategy: unknown strategy %d", strategy)
		}
	}
}

// WithBatchSize sets the global batch (ShaDow roots per optimizer step)
// for TrainDistributed.
func WithBatchSize(n int) Option {
	return func(s *settings) {
		if n < 1 {
			s.fail("WithBatchSize: need ≥1, got %d", n)
			return
		}
		s.batchSize = n
	}
}

func applyOptions(opts []Option) (settings, error) {
	s := defaultSettings()
	for _, o := range opts {
		if o != nil {
			o(&s)
		}
	}
	return s, s.err
}
