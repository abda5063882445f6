package recon

import (
	"context"
	"sync"
	"time"
)

// Request micro-batching (see API.md "Wire format & micro-batching").
//
// The serving tier's per-request cost has two parts: the event's actual
// reconstruction, and the fixed dispatch overhead around it (goroutine
// fan-out, kernel-budget setup, admission bookkeeping). At
// millions-of-users traffic most requests carry one event, so the fixed
// part dominates exactly the way per-batch kernel-launch overhead
// dominated training before bulk sampling. The coalescer amortizes it:
// concurrently-arriving ReconstructCoalesced calls merge into one run
// of the engine's worker pool, dispatched when the batch fills
// (WithMaxBatchEvents) or the batch window elapses (WithBatchWindow),
// whichever comes first.
//
// There is one submit path (submit below): ReconstructBatch is this
// path without a window, and every call's events run as one unit
// through the engine's one worker loop (work in engine.go). So the
// contract is ReconstructBatch's:
//   - Determinism: every event runs the same guarded per-event path, so
//     merged results are bitwise identical to unbatched execution.
//   - Deadlines: each request's WithRequestTimeout clock starts at
//     admission and keeps ticking while the unit waits in the window; a
//     unit whose deadline expires while queued returns
//     context.DeadlineExceeded (HTTP 503) and its unstarted events are
//     skipped at dispatch — batchmates are never poisoned. A fired
//     deadline or cancellation is returned ahead of a per-event error.
//   - Admission: each request reserves its slots in the shared
//     workers+queueDepth window at submission and fast-fails with
//     ErrOverloaded when full; the batch leader releases every unit's
//     slots once the merged run finishes.
//   - Faults: stage panics isolate into per-event *StageError; a faulted
//     event degrades one result slot of one unit.
//
// The design is leader-driven — the first request to open a batch waits
// out the window and then runs the merged units on its own goroutine
// plus the rest of the pool — so an idle engine carries no background
// coalescer goroutine and no Close lifecycle.

// mbBatch is one micro-batch accumulating units until dispatch.
type mbBatch struct {
	units  []*unit
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
func (c *coalescer) join(u *unit, maxEvents int) (*mbBatch, bool) {
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
func (c *coalescer) seal(b *mbBatch) []*unit {
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
// merge into one run of the worker pool (results bitwise identical to
// calling ReconstructBatch per request); without it, the call is
// ReconstructBatch. This is the entry point the HTTP server uses.
//
// Error semantics match ReconstructBatch from each caller's point of
// view: ErrOverloaded when the admission window is full at submission,
// context.DeadlineExceeded when the per-request deadline expires (in
// the window or mid-run, ahead of any per-event error), and otherwise
// the first per-event error of this caller's own events — never a
// batchmate's.
func (e *Engine) ReconstructCoalesced(ctx context.Context, events []*Event) ([]*Result, error) {
	return e.submit(ctx, events, e.coalescer)
}

// submit is the one submit path: it admits events as one unit, then
// runs it at once (c == nil) or merges it into c's open micro-batch,
// whose leader runs every unit of the batch.
func (e *Engine) submit(ctx context.Context, events []*Event, c *coalescer) ([]*Result, error) {
	if len(events) == 0 {
		return make([]*Result, 0), ctx.Err()
	}
	if !e.admit(len(events)) {
		return nil, ErrOverloaded
	}
	u := e.newUnit(ctx, events)
	defer u.cancel()
	units := []*unit{u}
	if c != nil {
		b, leader := c.join(u, e.maxBatchEvents)
		if !leader {
			select {
			case <-u.done:
				return u.results, u.err
			case <-u.ctx.Done():
				// Deadline or cancellation while queued (or while
				// batchmates run): return promptly. The leader skips this
				// unit's unstarted events and releases its admission
				// slots; workers may still write the results slice, so it
				// is not returned.
				return nil, u.ctx.Err()
			}
		}
		// Wait for company: the batch filling early or the window
		// elapsing. The leader dispatches regardless of its own deadline —
		// its role is structural, and batchmates must not be stranded.
		timer := time.NewTimer(e.batchWindow)
		select {
		case <-b.full:
		case <-timer.C:
		}
		timer.Stop()
		units = c.seal(b)
	}
	e.run(units)
	n := 0
	for _, v := range units {
		n += len(v.events)
	}
	if c != nil {
		e.coalescedBatches.Add(1)
		e.coalescedEvents.Add(int64(n))
	}
	e.inflight.Add(-int64(n))
	return u.results, u.err
}
