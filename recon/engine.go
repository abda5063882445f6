package recon

import (
	"context"
	"errors"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kernels"
	"repro/internal/workspace"
)

// Outcome is one event's reconstruction from a streaming engine:
// either a Result or a per-event error, tagged with the submission
// index. Event errors never abort the stream.
type Outcome struct {
	Index  int     // position in the submission order
	Event  *Event  // the submitted event
	Result *Result // nil iff Err != nil
	Err    error
}

// Engine executes a Reconstructor concurrently: a fixed worker pool
// where each worker pins one workspace arena for its whole lifetime,
// reconstructing events with zero steady-state allocation churn.
//
// Semantics (see API.md):
//   - Determinism: results are bit-identical to serial Reconstruct at
//     any worker count — each event is an independent unit of work and
//     the kernels parallelize deterministically.
//   - Ordering: ReconstructBatch returns results positionally;
//     ReconstructStream emits outcomes in submission order.
//   - Backpressure: at most workers+queueDepth events are in flight; a
//     stream producer blocks once the window is full.
//   - Errors: per-event errors ride in the Outcome (stream) or leave a
//     nil hole (batch); cancellation and admission rejection
//     (ErrOverloaded) are the only engine-level errors.
//   - Admission: at most workers+queueDepth events are in flight across
//     all entry points. A batch that would push past the window is
//     rejected immediately with ErrOverloaded (fast fail, never an
//     unbounded queue) — except that an idle engine always admits one
//     request of any size, so a single large batch can still run; its
//     internal parallelism is bounded by the worker pool regardless.
//     Streams apply blocking backpressure to their producer instead of
//     fast-failing, but their in-flight events count against the same
//     window, so concurrent batches see the load.
//   - Deadlines: WithRequestTimeout puts a per-call (batch) or per-event
//     (stream) deadline on the work, propagated into every stage call.
//   - Panic isolation: a stage panic is recovered into a per-event
//     *StageError; sibling events keep completing and the worker
//     replaces its arena rather than dying.
type Engine struct {
	rec           *Reconstructor
	workers       int
	queue         int
	kernelWorkers int
	timeout       time.Duration

	limit    int64        // admission window: workers + queueDepth events
	inflight atomic.Int64 // events admitted and not yet finished
	rejected atomic.Int64 // requests fast-failed with ErrOverloaded
	panics   atomic.Int64 // stage panics recovered into StageErrors

	// Micro-batching (see microbatch.go); coalescer is nil when disabled.
	batchWindow      time.Duration
	maxBatchEvents   int
	coalescer        *coalescer
	coalescedBatches atomic.Int64 // micro-batches dispatched
	coalescedEvents  atomic.Int64 // events executed through the coalesced path
}

// EngineStats is a point-in-time snapshot of the engine's admission
// window and fault counters, surfaced by /statz.
type EngineStats struct {
	InFlight         int64 // events admitted and not yet finished
	Capacity         int64 // admission window size (workers + queueDepth)
	Rejected         int64 // requests rejected with ErrOverloaded
	PanicsRecovered  int64 // stage panics recovered into per-event errors
	CoalescedBatches int64 // micro-batches dispatched by the coalescer
	CoalescedEvents  int64 // events executed through the coalesced path
}

// Stats returns the engine's admission and fault counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		InFlight:         e.inflight.Load(),
		Capacity:         e.limit,
		Rejected:         e.rejected.Load(),
		PanicsRecovered:  e.panics.Load(),
		CoalescedBatches: e.coalescedBatches.Load(),
		CoalescedEvents:  e.coalescedEvents.Load(),
	}
}

// admit reserves n in-flight slots, or reports overload. An idle engine
// (nothing in flight) admits any n so oversized batches remain
// servable; otherwise the reservation must fit the window.
func (e *Engine) admit(n int) bool {
	for {
		cur := e.inflight.Load()
		if cur > 0 && cur+int64(n) > e.limit {
			e.rejected.Add(1)
			return false
		}
		if e.inflight.CompareAndSwap(cur, cur+int64(n)) {
			return true
		}
	}
}

// NewEngine wraps a reconstructor in a concurrent execution core.
// Relevant options: WithWorkers, WithQueueDepth, WithKernelWorkers
// (defaulting to the reconstructor's own setting, then to an automatic
// GOMAXPROCS/workers share so pool and kernel parallelism compose).
// Options already applied to the Reconstructor (thresholds, stages)
// are not re-interpreted here.
func NewEngine(rec *Reconstructor, opts ...Option) (*Engine, error) {
	set, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	if set.kernelWorkers == 0 {
		set.kernelWorkers = rec.set.kernelWorkers
	}
	e := &Engine{
		rec:            rec,
		workers:        set.workers,
		queue:          set.queueDepth,
		kernelWorkers:  set.kernelWorkers,
		timeout:        set.requestTimeout,
		limit:          int64(set.workers + set.queueDepth),
		batchWindow:    set.batchWindow,
		maxBatchEvents: set.maxBatchEvents,
	}
	if set.batchWindow > 0 {
		e.coalescer = &coalescer{}
	}
	return e, nil
}

// reconstructGuarded is the engine's fault boundary around one event:
// it tags per-event StageErrors with the submission index, counts
// recovered panics, and — should a panic escape the stage-level guards
// (reconstructWith recovers panics inside stage implementations, not in
// the assembly/metrics glue) — recovers it here and hands the worker a
// fresh arena, since the old one may have been abandoned mid-mutation.
func (e *Engine) reconstructGuarded(ctx context.Context, arena **workspace.Arena, idx int, ev *Event) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			e.panics.Add(1)
			err = &StageError{Stage: "engine", Event: idx, Panic: p, Stack: debug.Stack()}
			*arena = workspace.NewArena()
		}
	}()
	res, err = e.rec.reconstructWith(ctx, *arena, ev)
	if se := AsStageError(err); se != nil {
		if se.Event < 0 {
			se.Event = idx
		}
		if se.IsPanic() {
			e.panics.Add(1)
		}
	}
	return res, err
}

// unitCtx derives the context one event runs under: the worker's
// kernel-budget context, bounded by the per-request deadline when one
// is configured. The returned cancel must be called once the event
// finishes to release the timer.
func (e *Engine) unitCtx(wctx context.Context) (context.Context, context.CancelFunc) {
	if e.timeout <= 0 {
		return wctx, func() {}
	}
	return context.WithTimeout(wctx, e.timeout)
}

// workerCtx installs one pool worker's intra-op kernel budget on ctx:
// the host divided across the workers actually running, so
// workers × kernel-workers never exceeds GOMAXPROCS.
func (e *Engine) workerCtx(ctx context.Context, workers int) context.Context {
	return kernels.Into(ctx, kernels.Budget(workers, e.kernelWorkers))
}

// Reconstructor returns the engine's underlying reconstructor.
func (e *Engine) Reconstructor() *Reconstructor { return e.rec }

// Workers returns the worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// ReconstructBatch reconstructs a batch concurrently and returns
// results in event order, bit-identical to calling Reconstruct on each
// event serially. On cancellation it returns promptly with the results
// completed so far (unfinished slots are nil) and ctx.Err(). A nil
// event leaves a nil result slot.
//
// The call is admission-controlled: if the batch would push the engine
// past its workers+queueDepth in-flight window while other work is
// running, it is rejected immediately with ErrOverloaded and no event
// is reconstructed. With WithRequestTimeout set, the whole call runs
// under that deadline and returns context.DeadlineExceeded (with the
// results completed so far) when it expires. Stage panics never escape:
// each becomes a per-event *StageError, counted in Stats, and the
// batch's other events complete normally.
func (e *Engine) ReconstructBatch(ctx context.Context, events []*Event) ([]*Result, error) {
	results := make([]*Result, len(events))
	if len(events) == 0 {
		return results, ctx.Err()
	}
	if !e.admit(len(events)) {
		return nil, ErrOverloaded
	}
	defer e.inflight.Add(-int64(len(events)))
	if e.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.timeout)
		defer cancel()
	}
	// Touching each event's lazily-built truth set up front keeps the
	// workers read-only on shared *Event values, even when the same
	// pointer appears in the batch twice.
	warmTruth(events)

	workers := e.workers
	if workers > len(events) {
		workers = len(events)
	}
	var (
		next     atomic.Int64
		errMu    sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := workspace.NewArena()
			defer func() { arena.Reset() }()
			wctx := e.workerCtx(ctx, workers)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(events) || ctx.Err() != nil {
					return
				}
				if events[i] == nil {
					continue
				}
				res, err := e.reconstructGuarded(wctx, &arena, i, events[i])
				if err != nil {
					if ctx.Err() == nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
					}
					continue
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, firstErr
}

// ReconstructStream reconstructs events as they arrive on in, emitting
// one Outcome per event on the returned channel in submission order.
// At most workers+queueDepth events are admitted at once — once the
// window is full, reads from in pause until an outcome is consumed
// (bounded in-flight backpressure). The output channel closes after in
// closes and every admitted event's outcome has been emitted, or
// promptly on cancellation (events never admitted are dropped). The
// consumer must drain the output channel or cancel the context;
// abandoning it mid-stream leaks the pool's goroutines.
func (e *Engine) ReconstructStream(ctx context.Context, in <-chan *Event) <-chan Outcome {
	out := make(chan Outcome)
	work := make(chan Outcome) // dispatched units: Result/Err unset
	done := make(chan Outcome) // finished units, arbitrary order
	window := e.workers + e.queue

	// Stream events count against the engine's shared admission window
	// (so concurrent batches fast-fail while a stream saturates it), but
	// the stream itself applies blocking backpressure to its producer
	// rather than rejecting. admitted/released reconcile the shared
	// counter once the dispatcher and reorderer both exit, covering
	// events that were admitted but never emitted on cancellation.
	var admitted, released atomic.Int64
	var roles sync.WaitGroup
	roles.Add(2)
	go func() {
		roles.Wait()
		e.inflight.Add(released.Load() - admitted.Load())
	}()

	// Dispatcher: admit events under the in-flight window.
	admit := make(chan struct{}, window)
	go func() {
		defer roles.Done()
		defer close(work)
		idx := 0
		for {
			select {
			case <-ctx.Done():
				return
			case ev, ok := <-in:
				if !ok {
					return
				}
				select {
				case admit <- struct{}{}:
					admitted.Add(1)
					e.inflight.Add(1)
				case <-ctx.Done():
					return
				}
				if ev != nil {
					// See ReconstructBatch: keep workers read-only.
					ev.IsTruthEdge(0, 0)
				}
				select {
				case work <- Outcome{Index: idx, Event: ev}:
					idx++
				case <-ctx.Done():
					return
				}
			}
		}
	}()

	// Workers: one pinned arena each, replaced if a panic escapes the
	// stage guards; each event runs under the per-request deadline.
	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := workspace.NewArena()
			defer func() { arena.Reset() }()
			wctx := e.workerCtx(ctx, e.workers)
			for u := range work {
				if ctx.Err() != nil {
					return
				}
				if u.Event == nil {
					u.Err = errNilEvent
				} else {
					uctx, cancel := e.unitCtx(wctx)
					u.Result, u.Err = e.reconstructGuarded(uctx, &arena, u.Index, u.Event)
					cancel()
				}
				select {
				case done <- u:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()

	// Reorderer: emit in submission order, releasing window slots as
	// outcomes leave, which is what bounds the reorder buffer.
	go func() {
		defer roles.Done()
		defer close(out)
		pending := make(map[int]Outcome, window)
		nextIdx := 0
		for u := range done {
			pending[u.Index] = u
			for {
				o, ok := pending[nextIdx]
				if !ok {
					break
				}
				delete(pending, nextIdx)
				select {
				case out <- o:
				case <-ctx.Done():
					return
				}
				<-admit
				released.Add(1)
				e.inflight.Add(-1)
				nextIdx++
			}
		}
	}()
	return out
}

var errNilEvent = errors.New("recon: nil event")

// warmTruth forces each event's lazily-built truth-edge set so that
// concurrent workers never mutate shared Event state.
func warmTruth(events []*Event) {
	for _, ev := range events {
		if ev != nil {
			ev.IsTruthEdge(0, 0)
		}
	}
}
