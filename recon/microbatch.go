package recon

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kernels"
	"repro/internal/workspace"
)

// Request micro-batching (see API.md "Wire format & micro-batching").
//
// The serving tier's per-request cost has two parts: the event's actual
// reconstruction, and the fixed dispatch overhead around it (goroutine
// fan-out, kernel-budget setup, admission bookkeeping). At
// millions-of-users traffic most requests carry one event, so the fixed
// part dominates exactly the way per-batch kernel-launch overhead
// dominated training before bulk sampling. The coalescer amortizes it:
// concurrently-arriving ReconstructCoalesced calls merge into one
// engine batch, dispatched when the batch fills (WithMaxBatchEvents) or
// the batch window elapses (WithBatchWindow), whichever comes first.
//
// The contract mirrors ReconstructBatch:
//   - Determinism: every event is an independent unit of work running
//     the same guarded per-event path, so merged results are bitwise
//     identical to unbatched execution.
//   - Deadlines: each request's WithRequestTimeout clock starts at
//     submission and keeps ticking while the unit waits in the window; a
//     unit whose deadline expires while queued returns
//     context.DeadlineExceeded (HTTP 503) and its unstarted events are
//     skipped at dispatch — batchmates are never poisoned.
//   - Admission: each request reserves its slots in the shared
//     workers+queueDepth window at submission and fast-fails with
//     ErrOverloaded when full; the batch leader releases every unit's
//     slots once the merged batch finishes.
//   - Faults: stage panics isolate into per-event *StageError exactly as
//     in ReconstructBatch; a faulted event degrades one result slot of
//     one unit.
//
// The design is leader-driven — the first request to open a batch waits
// out the window and then executes the merged batch on its own
// goroutine — so an idle engine carries no background coalescer
// goroutine and no Close lifecycle.

// mbUnit is one caller's request riding in a micro-batch.
type mbUnit struct {
	ctx     context.Context // the caller's ctx bounded by the per-request deadline
	events  []*Event
	results []*Result
	err     error // first per-event error of THIS unit, nil if all completed
	done    chan struct{}
}

// mbBatch is one micro-batch accumulating units until dispatch.
type mbBatch struct {
	units  []*mbUnit
	events int
	full   chan struct{} // closed when the batch fills early
	closed bool          // no more joins; guarded by the coalescer lock
}

// coalescer merges concurrent requests into micro-batches.
type coalescer struct {
	mu  sync.Mutex
	cur *mbBatch
}

// join adds a unit to the open batch (starting a new one when none is
// open), reports whether the caller became that batch's leader, and
// closes the batch early once it holds maxEvents events.
func (c *coalescer) join(u *mbUnit, maxEvents int) (*mbBatch, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.cur
	leader := false
	if b == nil || b.closed {
		b = &mbBatch{full: make(chan struct{})}
		c.cur = b
		leader = true
	}
	b.units = append(b.units, u)
	b.events += len(u.events)
	if b.events >= maxEvents && !b.closed {
		b.closed = true
		close(b.full)
		if c.cur == b {
			c.cur = nil
		}
	}
	return b, leader
}

// seal closes the batch to further joins and returns its final units.
// Only the batch's leader calls it, after the window elapses or the
// batch fills.
func (c *coalescer) seal(b *mbBatch) []*mbUnit {
	c.mu.Lock()
	defer c.mu.Unlock()
	b.closed = true
	if c.cur == b {
		c.cur = nil
	}
	return b.units
}

// ReconstructCoalesced reconstructs a batch through the engine's
// micro-batching layer: with WithBatchWindow enabled, concurrent calls
// merge into one engine batch (results bitwise identical to calling
// ReconstructBatch per request); without it, the call degenerates to
// ReconstructBatch. This is the entry point the HTTP server uses.
//
// Error semantics match ReconstructBatch from each caller's point of
// view: ErrOverloaded when the admission window is full at submission,
// context.DeadlineExceeded when the per-request deadline expires (in
// the window or mid-run), and otherwise the first per-event error of
// this caller's own events — never a batchmate's.
func (e *Engine) ReconstructCoalesced(ctx context.Context, events []*Event) ([]*Result, error) {
	if e.coalescer == nil {
		return e.ReconstructBatch(ctx, events)
	}
	if len(events) == 0 {
		return make([]*Result, 0), ctx.Err()
	}
	if !e.admit(len(events)) {
		return nil, ErrOverloaded
	}
	// The admission slots are released by the batch leader after the
	// merged batch finishes — single-owner accounting that stays correct
	// even when this caller abandons the wait on deadline expiry.
	uctx := ctx
	cancel := context.CancelFunc(func() {})
	if e.timeout > 0 {
		// The deadline clock starts now, so time queued in the batch
		// window counts against it.
		uctx, cancel = context.WithTimeout(ctx, e.timeout)
	}
	defer cancel()
	warmTruth(events) // keep workers read-only on shared *Event values

	u := &mbUnit{
		ctx:     uctx,
		events:  events,
		results: make([]*Result, len(events)),
		done:    make(chan struct{}),
	}
	b, leader := e.coalescer.join(u, e.maxBatchEvents)
	if leader {
		// Wait for company: the batch filling early or the window
		// elapsing. The leader dispatches regardless of its own deadline —
		// its role is structural, and batchmates must not be stranded.
		if !func() bool {
			select {
			case <-b.full:
				return true
			default:
				return false
			}
		}() {
			timer := time.NewTimer(e.batchWindow)
			select {
			case <-b.full:
			case <-timer.C:
			}
			timer.Stop()
		}
		units := e.coalescer.seal(b)
		e.runCoalesced(units)
		total := 0
		for _, unit := range units {
			total += len(unit.events)
		}
		e.coalescedBatches.Add(1)
		e.coalescedEvents.Add(int64(total))
		for _, unit := range units {
			e.inflight.Add(-int64(len(unit.events)))
			close(unit.done)
		}
	}
	select {
	case <-u.done:
		if err := uctx.Err(); err != nil && u.err == nil {
			return u.results, err
		}
		return u.results, u.err
	case <-uctx.Done():
		// Deadline or cancellation while queued (or while batchmates
		// run): return promptly. The leader skips this unit's unstarted
		// events and releases its admission slots; the results slice may
		// still be written by in-flight workers, so it is not returned.
		return nil, uctx.Err()
	}
}

// runCoalesced executes the merged units on the worker pool: one flat
// work list, each event running under its own unit's context with the
// worker's kernel budget installed, through the same guarded per-event
// path as ReconstructBatch.
func (e *Engine) runCoalesced(units []*mbUnit) {
	type item struct {
		u   *mbUnit
		idx int
	}
	var items []item
	for _, u := range units {
		for i := range u.events {
			if u.events[i] != nil { // nil events leave nil result slots
				items = append(items, item{u, i})
			}
		}
	}
	if len(items) == 0 {
		return
	}
	workers := e.workers
	if workers > len(items) {
		workers = len(items)
	}
	var (
		next  atomic.Int64
		errMu sync.Mutex
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := workspace.NewArena()
			defer func() { arena.Reset() }()
			budget := kernels.Budget(workers, e.kernelWorkers)
			for {
				k := int(next.Add(1)) - 1
				if k >= len(items) {
					return
				}
				it := items[k]
				if it.u.ctx.Err() != nil {
					// This unit's deadline expired while queued or mid-batch:
					// skip its remaining events. Batchmates keep running.
					continue
				}
				res, err := e.reconstructGuarded(kernels.Into(it.u.ctx, budget), &arena, it.idx, it.u.events[it.idx])
				if err != nil {
					if it.u.ctx.Err() == nil {
						errMu.Lock()
						if it.u.err == nil {
							it.u.err = err
						}
						errMu.Unlock()
					}
					continue
				}
				it.u.results[it.idx] = res
			}
		}()
	}
	wg.Wait()
}
