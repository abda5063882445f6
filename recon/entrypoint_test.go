package recon_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/recon"
)

// The entry-point rules ReconstructBatch and ReconstructCoalesced
// share: per-call deadlines, and the precedence of a fired deadline
// over a per-event error.

// TestEngineSlowEventDeadline: under WithRequestTimeout one slow event
// fails its batch with context.DeadlineExceeded, while the others, with
// a worker each, complete and fill their slots.
func TestEngineSlowEventDeadline(t *testing.T) {
	ds := testDataset(t, 0.02, 4, 85)
	r, err := recon.New(ds.Spec,
		withExtractor(slowOnExtractor{slow: ds.Events[1]}),
		recon.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := recon.NewEngine(r,
		recon.WithWorkers(len(ds.Events)),
		recon.WithRequestTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.ReconstructBatch(context.Background(), ds.Events)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("batch with a slow event: err = %v, want DeadlineExceeded", err)
	}
	for i, res := range results {
		if (res == nil) != (i == 1) {
			t.Fatalf("event %d: result %v; only the slow event 1 may be missing", i, res)
		}
	}
	if st := eng.Stats(); st.InFlight != 0 {
		t.Fatalf("in-flight not released: %+v", st)
	}
}

// TestCoalescedDeadlineWinsOverEventError: a coalesced call whose
// deadline fires after one of its events has already failed returns
// context.DeadlineExceeded, as ReconstructBatch does.
func TestCoalescedDeadlineWinsOverEventError(t *testing.T) {
	ds := testDataset(t, 0.02, 2, 86)
	r, err := recon.New(ds.Spec,
		withExtractor(failThenBlockExtractor{calls: new(atomic.Int64)}),
		recon.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := recon.NewEngine(r,
		recon.WithWorkers(1), // event 0 fails, then event 1 blocks
		recon.WithBatchWindow(time.Millisecond),
		recon.WithRequestTimeout(300*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.ReconstructCoalesced(context.Background(), ds.Events)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded ahead of the per-event error", err)
	}
	if st := eng.Stats(); st.InFlight != 0 {
		t.Fatalf("in-flight not released: %+v", st)
	}
}

// TestTruthSetConcurrentFirstUse: an event's truth set may be built by
// concurrent first users, both through two engine calls and through
// two truth-level Reconstruct calls. Run under -race.
func TestTruthSetConcurrentFirstUse(t *testing.T) {
	ds := testDataset(t, 0.02, 2, 87)
	r, err := recon.New(ds.Spec, recon.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := recon.NewEngine(r, recon.WithWorkers(2), recon.WithQueueDepth(2))
	if err != nil {
		t.Fatal(err)
	}
	truth, err := recon.New(ds.Spec, recon.WithTruthLevelGraphs(1.5), recon.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	calls := []func() error{
		func() error { _, err := eng.ReconstructBatch(context.Background(), ds.Events[:1]); return err },
		func() error { _, err := eng.ReconstructBatch(context.Background(), ds.Events[:1]); return err },
		func() error { _, err := truth.Reconstruct(context.Background(), ds.Events[1]); return err },
		func() error { _, err := truth.Reconstruct(context.Background(), ds.Events[1]); return err },
	}
	errs := make([]error, len(calls))
	var wg sync.WaitGroup
	for i, call := range calls {
		wg.Add(1)
		go func() { defer wg.Done(); errs[i] = call() }()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}
