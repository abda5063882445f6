package recon

import (
	"context"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kernels"
	"repro/internal/workspace"
)

// Engine executes a Reconstructor concurrently. Every call runs its
// events on one pool of workers that lives for that call; each worker
// pins one workspace arena, so events reconstruct with zero
// steady-state allocation churn.
//
// Semantics (see API.md):
//   - Determinism: results are bit-identical to serial Reconstruct at
//     any worker count — each event is an independent unit of work and
//     the kernels parallelize deterministically.
//   - Ordering: results come back positionally, one slot per event.
//   - Admission: at most workers+queueDepth events are in flight across
//     both entry points. A call that would push past the window is
//     rejected immediately with ErrOverloaded (fast fail, never an
//     unbounded queue) — except that an idle engine always admits one
//     request of any size, so a single large batch can still run; its
//     internal parallelism is bounded by the worker pool regardless.
//   - Deadlines: WithRequestTimeout puts a deadline on each admitted
//     call, whose clock starts at admission and is propagated into
//     every stage call.
//   - Errors: a per-event error leaves a nil hole in the results. A
//     call whose deadline fired or whose context was cancelled reports
//     that error ahead of any per-event error; cancellation and
//     admission rejection (ErrOverloaded) are the only engine-level
//     errors.
//   - Panic isolation: a stage panic is recovered into a per-event
//     *StageError; sibling events keep completing and the worker
//     replaces its arena rather than dying.
type Engine struct {
	rec     *Reconstructor
	workers int
	timeout time.Duration

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
// Relevant options: WithWorkers and WithQueueDepth. Each worker runs its
// kernels on a GOMAXPROCS/workers share of the host, so pool and kernel
// parallelism compose.
// Options already applied to the Reconstructor (thresholds, stages)
// are not re-interpreted here.
func NewEngine(rec *Reconstructor, opts ...Option) (*Engine, error) {
	set, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		rec:            rec,
		workers:        set.workers,
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
// it tags per-event StageErrors with the event's index in its call, counts
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

// unit is one admitted piece of work on its way through the worker
// loop: the events of one batch or coalesced call.
type unit struct {
	ctx     context.Context // the caller's ctx, bounded by the deadline set at admission
	cancel  context.CancelFunc
	events  []*Event
	results []*Result
	pending atomic.Int64 // events neither run nor skipped yet
	mu      sync.Mutex   // guards err while events run
	err     error        // settled by the unit's last task, see work
	done    chan struct{}
}

// newUnit admits events as one unit; the WithRequestTimeout clock
// starts here. The caller must call u.cancel once done with the unit.
func (e *Engine) newUnit(ctx context.Context, events []*Event) *unit {
	u := &unit{ctx: ctx, cancel: func() {}, events: events,
		results: make([]*Result, len(events)), done: make(chan struct{})}
	if e.timeout > 0 {
		u.ctx, u.cancel = context.WithTimeout(ctx, e.timeout)
	}
	u.pending.Store(int64(len(events)))
	return u
}

// work is the engine's one worker loop and the only caller of
// reconstructGuarded. It pins one arena, installs the kernel budget of
// a pool of the given size, and runs (unit, event) tasks from next
// until next reports none are left. A nil event, or one whose unit's
// context has ended, is skipped. The task that finishes a unit settles
// its error — a fired deadline or cancellation ahead of the first
// per-event error — and closes done.
func (e *Engine) work(pool int, next func() (*unit, int, bool)) {
	arena := workspace.NewArena()
	defer func() { arena.Reset() }()
	budget := kernels.Budget(pool, 0)
	for {
		u, i, ok := next()
		if !ok {
			return
		}
		if ev := u.events[i]; ev != nil && u.ctx.Err() == nil {
			res, err := e.reconstructGuarded(kernels.Into(u.ctx, budget), &arena, i, ev)
			if err == nil {
				u.results[i] = res
			} else {
				u.mu.Lock()
				if u.err == nil {
					u.err = err
				}
				u.mu.Unlock()
			}
		}
		if u.pending.Add(-1) == 0 {
			if err := u.ctx.Err(); err != nil {
				u.err = err
			}
			close(u.done)
		}
	}
}

// run executes units on a pool of up to e.workers goroutines, the
// caller's own among them, and returns once every event has run or
// been skipped.
func (e *Engine) run(units []*unit) {
	type task struct {
		u *unit
		i int
	}
	var tasks []task
	for _, u := range units {
		for i := range u.events {
			tasks = append(tasks, task{u, i})
		}
	}
	pool := min(e.workers, len(tasks))
	var next atomic.Int64
	pull := func() (*unit, int, bool) {
		k := int(next.Add(1)) - 1
		if k >= len(tasks) {
			return nil, 0, false
		}
		return tasks[k].u, tasks[k].i, true
	}
	var wg sync.WaitGroup
	for w := 1; w < pool; w++ {
		wg.Add(1)
		go func() { defer wg.Done(); e.work(pool, pull) }()
	}
	e.work(pool, pull)
	wg.Wait()
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
// batch's other events complete normally. It is ReconstructCoalesced
// without a batch window: the caller runs the pool at once.
func (e *Engine) ReconstructBatch(ctx context.Context, events []*Event) ([]*Result, error) {
	return e.submit(ctx, events, nil)
}
