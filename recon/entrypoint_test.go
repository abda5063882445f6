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

// The entry-point rules ReconstructBatch, ReconstructCoalesced and
// ReconstructStream share: nil events, per-event deadlines, and the
// precedence of a fired deadline over a per-event error.

// slowOnExtractor delays stage 5 for one event only, until its context
// ends.
type slowOnExtractor struct{ slow *recon.Event }

func (s slowOnExtractor) ExtractTracks(ctx context.Context, eg *recon.EventGraph, keep []bool) ([][]int, error) {
	if eg.Event != s.slow {
		return nil, nil
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// failThenBlockExtractor fails its first call at once and blocks every
// later call until its context ends.
type failThenBlockExtractor struct{ calls *atomic.Int64 }

var errFirstEvent = errors.New("first event fails")

func (f failThenBlockExtractor) ExtractTracks(ctx context.Context, eg *recon.EventGraph, keep []bool) ([][]int, error) {
	if f.calls.Add(1) == 1 {
		return nil, errFirstEvent
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// streamAll feeds events to a stream and collects every outcome.
func streamAll(eng *recon.Engine, events []*recon.Event) []recon.Outcome {
	in := make(chan *recon.Event)
	go func() {
		defer close(in)
		for _, ev := range events {
			in <- ev
		}
	}()
	var got []recon.Outcome
	for o := range eng.ReconstructStream(context.Background(), in) {
		got = append(got, o)
	}
	return got
}

// TestEngineStreamNilEvent: a nil event in a stream yields an outcome
// with its index and an error, and the events after it still arrive in
// order.
func TestEngineStreamNilEvent(t *testing.T) {
	ds := testDataset(t, 0.02, 3, 84)
	r, err := recon.New(ds.Spec, recon.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := recon.NewEngine(r, recon.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	events := []*recon.Event{ds.Events[0], nil, ds.Events[1], ds.Events[2]}
	got := streamAll(eng, events)
	if len(got) != len(events) {
		t.Fatalf("stream emitted %d outcomes for %d events", len(got), len(events))
	}
	for i, o := range got {
		if o.Index != i {
			t.Fatalf("outcome %d has index %d: stream is out of order", i, o.Index)
		}
		if events[i] == nil {
			if o.Err == nil || o.Result != nil {
				t.Fatalf("nil event %d: outcome %+v, want an error and no result", i, o)
			}
			continue
		}
		if o.Err != nil || o.Result == nil {
			t.Fatalf("outcome %d after a nil event: %v", i, o.Err)
		}
	}
}

// TestEngineStreamSlowEventDeadline: under WithRequestTimeout one slow
// streamed event gets context.DeadlineExceeded while the others, with
// a worker each, complete.
func TestEngineStreamSlowEventDeadline(t *testing.T) {
	ds := testDataset(t, 0.02, 4, 85)
	r, err := recon.New(ds.Spec,
		recon.WithTrackExtractor(slowOnExtractor{slow: ds.Events[1]}),
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
	got := streamAll(eng, ds.Events)
	if len(got) != len(ds.Events) {
		t.Fatalf("stream emitted %d outcomes for %d events", len(got), len(ds.Events))
	}
	for i, o := range got {
		if o.Index != i {
			t.Fatalf("outcome %d has index %d: stream is out of order", i, o.Index)
		}
		if i == 1 {
			if !errors.Is(o.Err, context.DeadlineExceeded) {
				t.Fatalf("slow event: err = %v, want DeadlineExceeded", o.Err)
			}
			continue
		}
		if o.Err != nil {
			t.Fatalf("outcome %d: %v", i, o.Err)
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
		recon.WithTrackExtractor(failThenBlockExtractor{calls: new(atomic.Int64)}),
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
