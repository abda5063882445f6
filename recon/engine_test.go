package recon_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/detector"
	"repro/internal/workspace"
	"repro/recon"
)

// TestEngineBatchParity is the golden concurrency test: a 4-worker
// batch over 32 events must be bit-identical to serial Reconstruct.
// Run under -race by CI.
func TestEngineBatchParity(t *testing.T) {
	ds := testDataset(t, 0.02, 32, 77)
	r, err := recon.New(ds.Spec, recon.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}

	serial := make([]*recon.Result, len(ds.Events))
	for i, ev := range ds.Events {
		res, err := r.Reconstruct(context.Background(), ev)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = res
	}

	eng, err := recon.NewEngine(r, recon.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := eng.ReconstructBatch(context.Background(), ds.Events)
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel) != len(serial) {
		t.Fatalf("got %d results, want %d", len(parallel), len(serial))
	}
	for i := range serial {
		if !reflect.DeepEqual(parallel[i], serial[i]) {
			t.Fatalf("event %d: 4-worker result diverges from serial:\n got %+v\nwant %+v",
				i, parallel[i], serial[i])
		}
	}
}

// TestEngineBatchParityTruthGraphs repeats the parity check with the
// truth-level builder, whose per-event RNG must not depend on
// processing order.
func TestEngineBatchParityTruthGraphs(t *testing.T) {
	ds := testDataset(t, 0.02, 8, 78)
	r, err := recon.New(ds.Spec, recon.WithTruthLevelGraphs(1.5), recon.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	serial := make([]*recon.Result, len(ds.Events))
	for i, ev := range ds.Events {
		res, err := r.Reconstruct(context.Background(), ev)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = res
	}
	eng, err := recon.NewEngine(r, recon.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := eng.ReconstructBatch(context.Background(), ds.Events)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if !reflect.DeepEqual(parallel[i], serial[i]) {
			t.Fatalf("event %d: truth-level parallel result diverges from serial", i)
		}
	}
}

// TestEngineBatchCancellation: cancelling mid-batch returns promptly
// with ctx.Err() and partial results, leaks no goroutines, returns
// every pooled arena, and reconciles the admission window back to zero.
func TestEngineBatchCancellation(t *testing.T) {
	ds := testDataset(t, 0.02, 64, 79)
	r, err := recon.New(ds.Spec,
		withExtractor(slowExtractor{delay: 20 * time.Millisecond}),
		recon.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := recon.NewEngine(r, recon.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	beforeGoroutines := runtime.NumGoroutine()
	beforeBytes := workspace.InUseBytes()

	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(60 * time.Millisecond); cancel() }()

	start := time.Now()
	results, err := eng.ReconstructBatch(ctx, ds.Events)
	elapsed := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("got err %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, not prompt", elapsed)
	}
	missing := 0
	for _, res := range results {
		if res == nil {
			missing++
		}
	}
	if missing == 0 {
		t.Fatal("expected unfinished (nil) slots after mid-batch cancel")
	}

	assertEngineClean(t, eng, beforeGoroutines, beforeBytes)
}

// assertEngineClean waits for the engine to wind down after a cancel,
// then checks that its pool goroutines are gone, every pooled arena is
// back in the pools and the admission window is reconciled to zero.
func assertEngineClean(t *testing.T, eng *recon.Engine, beforeGoroutines int, beforeBytes int64) {
	t.Helper()
	waitUntil := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= beforeGoroutines &&
			workspace.InUseBytes() == beforeBytes &&
			eng.Stats().InFlight == 0 {
			break
		}
		if time.Now().After(waitUntil) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > beforeGoroutines {
		t.Fatalf("goroutines leaked: %d before, %d after cancel", beforeGoroutines, g)
	}
	if got := workspace.InUseBytes(); got != beforeBytes {
		t.Fatalf("pooled arenas not returned: %d bytes in use before, %d after", beforeBytes, got)
	}
	if inflight := eng.Stats().InFlight; inflight != 0 {
		t.Fatalf("admission window not reconciled: %d still in flight", inflight)
	}
}

// TestEngineNilAndEmpty: nil events leave nil slots; empty batches work.
func TestEngineNilAndEmpty(t *testing.T) {
	ds := testDataset(t, 0.02, 2, 83)
	r, err := recon.New(ds.Spec, recon.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := recon.NewEngine(r, recon.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := eng.ReconstructBatch(context.Background(), nil); err != nil || len(res) != 0 {
		t.Fatalf("empty batch: res=%v err=%v", res, err)
	}
	res, err := eng.ReconstructBatch(context.Background(), []*detector.Event{ds.Events[0], nil, ds.Events[1]})
	if err != nil {
		t.Fatal(err)
	}
	if res[0] == nil || res[1] != nil || res[2] == nil {
		t.Fatalf("nil-event handling wrong: %v", res)
	}
}

// A request stream is what the server feeds the engine: independent
// requests arriving concurrently, each one ReconstructCoalesced call,
// merged into micro-batches by the batch window.

// reply is one request's answer in a stream.
type reply struct {
	req     int
	results []*recon.Result
	err     error
}

// streamRequests submits each request as its own concurrent
// ReconstructCoalesced call and sends every reply as it arrives. The
// channel closes once every call has returned.
func streamRequests(ctx context.Context, eng *recon.Engine, reqs [][]*recon.Event) <-chan reply {
	out := make(chan reply, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := eng.ReconstructCoalesced(ctx, req)
			out <- reply{i, res, err}
		}()
	}
	go func() { wg.Wait(); close(out) }()
	return out
}

// singleEventRequests makes one request per event.
func singleEventRequests(events []*recon.Event) [][]*recon.Event {
	reqs := make([][]*recon.Event, len(events))
	for i, ev := range events {
		reqs[i] = []*recon.Event{ev}
	}
	return reqs
}

// drainReplies reads replies until the stream closes, failing the test
// if that takes longer than limit.
func drainReplies(t *testing.T, out <-chan reply, limit time.Duration) []reply {
	t.Helper()
	var got []reply
	deadline := time.After(limit)
	for {
		select {
		case r, ok := <-out:
			if !ok {
				return got
			}
			got = append(got, r)
		case <-deadline:
			t.Fatalf("request stream did not finish within %v", limit)
		}
	}
}

// TestEngineStreamCancellation: cancelling a request stream after one
// reply makes every outstanding request return promptly.
func TestEngineStreamCancellation(t *testing.T) {
	ds := testDataset(t, 0.02, 1, 82)
	r, err := recon.New(ds.Spec,
		withExtractor(slowExtractor{delay: 50 * time.Millisecond}),
		recon.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := recon.NewEngine(r,
		recon.WithWorkers(2),
		recon.WithQueueDepth(8),
		recon.WithBatchWindow(2*time.Millisecond),
		recon.WithMaxBatchEvents(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reqs := make([][]*recon.Event, 8)
	for i := range reqs {
		reqs[i] = ds.Events[:1]
	}
	out := streamRequests(ctx, eng, reqs)
	<-out // at least one reply flows
	cancel()
	for _, r := range drainReplies(t, out, 5*time.Second) {
		if r.err != nil && !errors.Is(r.err, context.Canceled) {
			t.Fatalf("request %d after cancel: %v, want nil or context.Canceled", r.req, r.err)
		}
	}
}

// TestEngineStreamCancelCleanup extends the leak check to the request
// stream: cancelling after a prefix of clean replies leaks no
// goroutines, returns every pooled arena, and reconciles the admission
// window back to zero.
func TestEngineStreamCancelCleanup(t *testing.T) {
	ds := testDataset(t, 0.02, 32, 95)
	r, err := recon.New(ds.Spec,
		withExtractor(slowExtractor{delay: 10 * time.Millisecond}),
		recon.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := recon.NewEngine(r,
		recon.WithWorkers(2),
		recon.WithQueueDepth(len(ds.Events)),
		recon.WithBatchWindow(2*time.Millisecond),
		recon.WithMaxBatchEvents(2))
	if err != nil {
		t.Fatal(err)
	}
	beforeGoroutines := runtime.NumGoroutine()
	beforeBytes := workspace.InUseBytes()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := streamRequests(ctx, eng, singleEventRequests(ds.Events))

	// Take a prefix of clean replies, then cancel mid-stream.
	for i := 0; i < 3; i++ {
		r, ok := <-out
		if !ok {
			t.Fatalf("stream closed after %d replies", i)
		}
		if r.err != nil || r.results[0] == nil {
			t.Fatalf("prefix reply %d (request %d): %v", i, r.req, r.err)
		}
	}
	cancel()
	drainReplies(t, out, 10*time.Second)
	assertEngineClean(t, eng, beforeGoroutines, beforeBytes)
}

// TestEngineStreamNilEvent: a request carrying a nil event gets a nil
// slot and no error, and the requests around it in the stream still
// complete, bit-identical to serial.
func TestEngineStreamNilEvent(t *testing.T) {
	ds := testDataset(t, 0.02, 3, 84)
	r, err := recon.New(ds.Spec, recon.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	baseline := chaosBaseline(t, r, ds.Events)
	eng, err := recon.NewEngine(r,
		recon.WithWorkers(2),
		recon.WithQueueDepth(8),
		recon.WithBatchWindow(5*time.Millisecond),
		recon.WithMaxBatchEvents(8))
	if err != nil {
		t.Fatal(err)
	}
	reqs := [][]*recon.Event{{ds.Events[0]}, {nil}, {ds.Events[1], nil}, {ds.Events[2]}}
	want := [][]*recon.Result{{baseline[0]}, {nil}, {baseline[1], nil}, {baseline[2]}}
	got := drainReplies(t, streamRequests(context.Background(), eng, reqs), 10*time.Second)
	if len(got) != len(reqs) {
		t.Fatalf("stream answered %d requests of %d", len(got), len(reqs))
	}
	for _, r := range got {
		if r.err != nil {
			t.Fatalf("request %d: %v", r.req, r.err)
		}
		if !reflect.DeepEqual(r.results, want[r.req]) {
			t.Fatalf("request %d: results diverge from serial with nil slots for nil events", r.req)
		}
	}
	if st := eng.Stats(); st.InFlight != 0 {
		t.Fatalf("in-flight not released: %+v", st)
	}
}
