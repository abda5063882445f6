package recon_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/recon"
	"repro/recon/wire"
)

// The chaos suite: deterministic fault injection (internal/faultinject)
// driven through recon.WithStageWrapper, asserting the PR 6 robustness
// invariants under -race — panics never escape the engine, faulted
// events fail individually while siblings complete, fault-free events
// stay bit-identical to an uninjected run, overload fast-fails, and
// drain is graceful.

// chaosBaseline reconstructs every event serially on an uninjected
// reconstructor — the bit-identical reference for fault-free events.
func chaosBaseline(t *testing.T, r *recon.Reconstructor, events []*recon.Event) []*recon.Result {
	t.Helper()
	out := make([]*recon.Result, len(events))
	for i, ev := range events {
		res, err := r.Reconstruct(context.Background(), ev)
		if err != nil {
			t.Fatalf("baseline event %d: %v", i, err)
		}
		out[i] = res
	}
	return out
}

// TestChaosBatchFaultIsolation: with errors and panics injected into
// random stages, the batch call survives, faulted events leave nil
// slots with typed errors, and every completed event is bit-identical
// to the fault-free baseline.
func TestChaosBatchFaultIsolation(t *testing.T) {
	ds := testDataset(t, 0.02, 16, 90)
	clean, err := recon.New(ds.Spec, recon.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	baseline := chaosBaseline(t, clean, ds.Events)

	inj, err := faultinject.New(faultinject.Config{Seed: 42, ErrorRate: 0.12, PanicRate: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	chaotic, err := recon.New(ds.Spec, recon.WithSeed(5), recon.WithStageWrapper(inj))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := recon.NewEngine(chaotic, recon.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}

	results, err := eng.ReconstructBatch(context.Background(), ds.Events)
	if err != nil {
		// The batch-level error is the first per-event failure; it must be
		// one of ours, not an escaped panic or a mangled chain.
		if !errors.Is(err, faultinject.ErrInjected) && recon.AsStageError(err) == nil {
			t.Fatalf("batch error is neither injected nor a StageError: %v", err)
		}
	}
	// A recovered panic names a pipeline stage and is tagged with the
	// index of the event it failed, whose slot is empty.
	if se := recon.AsStageError(err); se != nil {
		stages := map[string]bool{"embed": true, "build": true, "filter": true, "classify": true, "extract": true}
		if !se.IsPanic() || !stages[se.Stage] {
			t.Fatalf("StageError %v: want a recovered panic in a pipeline stage", se)
		}
		if se.Event < 0 || se.Event >= len(results) || results[se.Event] != nil {
			t.Fatalf("StageError tagged event %d, which is not a failed slot", se.Event)
		}
	}

	var completed, faulted int
	for i, res := range results {
		if res == nil {
			faulted++
			continue
		}
		completed++
		if !reflect.DeepEqual(res, baseline[i]) {
			t.Fatalf("event %d completed under chaos but diverges from fault-free baseline", i)
		}
	}
	if completed == 0 || faulted == 0 {
		t.Fatalf("chaos run not exercising both paths: %d completed, %d faulted (tune seed)", completed, faulted)
	}
	st := inj.Stats()
	if int(st.Errors+st.Panics) != faulted {
		t.Fatalf("%d faults fired but %d events failed", st.Errors+st.Panics, faulted)
	}
	if got := eng.Stats().PanicsRecovered; got != st.Panics {
		t.Fatalf("engine recovered %d panics, injector fired %d", got, st.Panics)
	}
	if eng.Stats().InFlight != 0 {
		t.Fatalf("in-flight not released after batch: %+v", eng.Stats())
	}
}

// TestChaosDelayOnlyBitIdentical: latency spikes alone must never
// change results — the whole batch completes bit-identical to the
// fault-free baseline.
func TestChaosDelayOnlyBitIdentical(t *testing.T) {
	ds := testDataset(t, 0.02, 8, 91)
	clean, err := recon.New(ds.Spec, recon.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	baseline := chaosBaseline(t, clean, ds.Events)

	inj, err := faultinject.New(faultinject.Config{Seed: 7, DelayRate: 0.5, Delay: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	chaotic, err := recon.New(ds.Spec, recon.WithSeed(5), recon.WithStageWrapper(inj))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := recon.NewEngine(chaotic, recon.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.ReconstructBatch(context.Background(), ds.Events)
	if err != nil {
		t.Fatalf("delay-only chaos must not fail events: %v", err)
	}
	for i, res := range results {
		if !reflect.DeepEqual(res, baseline[i]) {
			t.Fatalf("event %d diverges under delay-only injection", i)
		}
	}
	if inj.Stats().Delays == 0 {
		t.Fatal("no delays fired at rate 0.5 over 8 events (tune seed)")
	}
}

// TestChaosStreamFaultIsolation: in a stream of two-event requests
// merged into micro-batches, injected errors and panics fail only their
// own events. A recovered panic's StageError names a pipeline stage and
// is tagged with the event's index in its own request, whose slot is
// empty; clean events match the baseline bit-for-bit.
func TestChaosStreamFaultIsolation(t *testing.T) {
	ds := testDataset(t, 0.02, 16, 92)
	clean, err := recon.New(ds.Spec, recon.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	baseline := chaosBaseline(t, clean, ds.Events)

	inj, err := faultinject.New(faultinject.Config{Seed: 13, ErrorRate: 0.12, PanicRate: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	chaotic, err := recon.New(ds.Spec, recon.WithSeed(5), recon.WithStageWrapper(inj))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := recon.NewEngine(chaotic,
		recon.WithWorkers(3),
		recon.WithQueueDepth(len(ds.Events)),
		recon.WithBatchWindow(3*time.Millisecond),
		recon.WithMaxBatchEvents(6))
	if err != nil {
		t.Fatal(err)
	}

	reqs := make([][]*recon.Event, len(ds.Events)/2)
	for k := range reqs {
		reqs[k] = ds.Events[2*k : 2*k+2]
	}
	got := drainReplies(t, streamRequests(context.Background(), eng, reqs), 30*time.Second)
	if len(got) != len(reqs) {
		t.Fatalf("stream answered %d requests of %d", len(got), len(reqs))
	}
	stages := map[string]bool{"embed": true, "build": true, "filter": true, "classify": true, "extract": true}
	var completed, faulted int
	for _, r := range got {
		if r.err != nil {
			if se := recon.AsStageError(r.err); se != nil {
				if !se.IsPanic() || !stages[se.Stage] {
					t.Fatalf("request %d: StageError %v, want a recovered panic in a pipeline stage", r.req, se)
				}
				if se.Event < 0 || se.Event >= len(r.results) || r.results[se.Event] != nil {
					t.Fatalf("request %d: StageError tagged event %d, which is not a failed slot", r.req, se.Event)
				}
			} else if !errors.Is(r.err, faultinject.ErrInjected) {
				t.Fatalf("request %d: error is neither StageError nor injected: %v", r.req, r.err)
			}
		}
		for j, res := range r.results {
			if res == nil {
				faulted++
				continue
			}
			completed++
			if !reflect.DeepEqual(res, baseline[2*r.req+j]) {
				t.Fatalf("request %d event %d completed under chaos but diverges from baseline", r.req, j)
			}
		}
	}
	if completed == 0 || faulted == 0 {
		t.Fatalf("stream chaos not exercising both paths: %d completed, %d faulted (tune seed)", completed, faulted)
	}
	st := inj.Stats()
	if int(st.Errors+st.Panics) != faulted {
		t.Fatalf("%d faults fired but %d events failed", st.Errors+st.Panics, faulted)
	}
	if got := eng.Stats().PanicsRecovered; got != st.Panics {
		t.Fatalf("engine recovered %d panics, injector fired %d", got, st.Panics)
	}
	if eng.Stats().InFlight != 0 {
		t.Fatalf("in-flight not released after the stream: %+v", eng.Stats())
	}
}

// TestEngineOverloadFastFail: with the admission window held full, a
// second batch is rejected immediately with ErrOverloaded — no queueing,
// no waiting — and the rejection is counted.
func TestEngineOverloadFastFail(t *testing.T) {
	ds := testDataset(t, 0.02, 2, 93)
	gate := newGate()
	r, err := recon.New(ds.Spec, withExtractor(gate), recon.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := recon.NewEngine(r, recon.WithWorkers(1), recon.WithQueueDepth(0))
	if err != nil {
		t.Fatal(err)
	}

	occupantErr := make(chan error, 1)
	go func() {
		_, err := eng.ReconstructBatch(context.Background(), ds.Events[:1])
		occupantErr <- err
	}()
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("occupant batch never reached the extractor")
	}

	start := time.Now()
	_, err = eng.ReconstructBatch(context.Background(), ds.Events[1:])
	if !errors.Is(err, recon.ErrOverloaded) {
		t.Fatalf("saturated engine returned %v, want ErrOverloaded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("overload rejection took %v, not a fast fail", elapsed)
	}
	if eng.Stats().Rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", eng.Stats().Rejected)
	}

	close(gate.release)
	if err := <-occupantErr; err != nil {
		t.Fatalf("occupant batch failed after release: %v", err)
	}
	if eng.Stats().InFlight != 0 {
		t.Fatalf("in-flight not released: %+v", eng.Stats())
	}
}

// TestEngineRequestTimeout: WithRequestTimeout bounds a wedged batch —
// the call returns DeadlineExceeded promptly instead of hanging.
func TestEngineRequestTimeout(t *testing.T) {
	ds := testDataset(t, 0.02, 1, 94)
	r, err := recon.New(ds.Spec,
		withExtractor(slowExtractor{delay: 10 * time.Minute}),
		recon.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := recon.NewEngine(r, recon.WithWorkers(1), recon.WithRequestTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = eng.ReconstructBatch(context.Background(), ds.Events)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline enforcement took %v", elapsed)
	}
}

// gatedServer builds a server whose single worker blocks in the
// extractor until released.
func gatedServer(t *testing.T, opts ...recon.Option) (*recon.Server, gateExtractor) {
	t.Helper()
	spec := testDataset(t, 0.02, 1, 1).Spec
	gate := newGate()
	r, err := recon.New(spec,
		recon.WithTruthLevelGraphs(1.0),
		recon.WithThreshold(0),
		withExtractor(gate),
		recon.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := recon.NewEngine(r, recon.WithWorkers(1), recon.WithQueueDepth(0))
	if err != nil {
		t.Fatal(err)
	}
	return recon.NewServer(eng, opts...), gate
}

func syntheticReq() recon.ReconstructRequest {
	return recon.ReconstructRequest{Synthetic: &wire.Synthetic{Count: 1, Seed: 7}}
}

// TestServerOverload429: with the engine saturated, a concurrent
// request fast-fails with 429 and a Retry-After hint; the admitted
// request still completes once unblocked.
func TestServerOverload429(t *testing.T) {
	srv, gate := gatedServer(t)

	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- postJSON(t, srv, "/v1/reconstruct", syntheticReq()) }()
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("first request never reached the extractor")
	}

	w := postJSON(t, srv, "/v1/reconstruct", syntheticReq())
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated server returned %d, want 429: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}

	close(gate.release)
	if w := <-first; w.Code != http.StatusOK {
		t.Fatalf("admitted request finished %d after release: %s", w.Code, w.Body.String())
	}
}

// TestServerContentTypeAndBodyLimit: non-JSON Content-Type is a 415,
// an oversized body a 413 — both before any reconstruction work.
func TestServerContentTypeAndBodyLimit(t *testing.T) {
	srv, _ := testServer(t)
	req := httptest.NewRequest("POST", "/v1/reconstruct", strings.NewReader("hits=1"))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusUnsupportedMediaType {
		t.Fatalf("non-JSON Content-Type: status %d, want 415", w.Code)
	}

	small, _ := testServer(t, recon.WithMaxBodyBytes(64))
	big := `{"pad":"` + strings.Repeat("x", 200) + `"}`
	req = httptest.NewRequest("POST", "/v1/reconstruct", bytes.NewReader([]byte(big)))
	req.Header.Set("Content-Type", "application/json")
	w = httptest.NewRecorder()
	small.ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", w.Code)
	}
}

// TestNewServerKeepsValidOptions: an invalid option leaves only its own
// setting at the default, so a valid sibling option still applies — the
// 64-byte body cap answers 413 next to a rejected drain timeout, where a
// reset to the defaults would serve the request.
func TestNewServerKeepsValidOptions(t *testing.T) {
	srv, _ := testServer(t, recon.WithDrainTimeout(0), recon.WithMaxBodyBytes(64))
	body := `{"synthetic":{"count":1,"seed":7},"pad":"` + strings.Repeat("x", 87) + `"}`
	if len(body) != 130 {
		t.Fatalf("body is %d bytes, want 130", len(body))
	}
	req := httptest.NewRequest("POST", "/v1/reconstruct", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("130-byte body under a 64-byte cap: status %d, want 413", w.Code)
	}
}

// TestServerGracefulDrain: Shutdown flips /healthz to draining, rejects
// new reconstruct work with 503, lets the in-flight request finish, and
// returns nil once the server is idle.
func TestServerGracefulDrain(t *testing.T) {
	srv, gate := gatedServer(t)

	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- postJSON(t, srv, "/v1/reconstruct", syntheticReq()) }()
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never reached the extractor")
	}

	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(context.Background()) }()
	waitUntil := time.Now().Add(5 * time.Second)
	for !srv.Draining() {
		if time.Now().After(waitUntil) {
			t.Fatal("server never flipped to draining")
		}
		time.Sleep(time.Millisecond)
	}

	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", w.Code)
	}
	if w := postJSON(t, srv, "/v1/reconstruct", syntheticReq()); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("new work while draining: %d, want 503", w.Code)
	}

	// The in-flight request finishes intact, then Shutdown completes.
	close(gate.release)
	if w := <-first; w.Code != http.StatusOK {
		t.Fatalf("in-flight request truncated by drain: %d: %s", w.Code, w.Body.String())
	}
	select {
	case err := <-shutdownErr:
		if err != nil {
			t.Fatalf("drain failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return after in-flight work finished")
	}
}

// TestServerDrainTimeout: a drain that cannot finish within its context
// reports ctx.Err() instead of blocking forever.
func TestServerDrainTimeout(t *testing.T) {
	srv, gate := gatedServer(t)
	defer close(gate.release)

	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- postJSON(t, srv, "/v1/reconstruct", syntheticReq()) }()
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never reached the extractor")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired drain returned %v, want DeadlineExceeded", err)
	}
}

// TestServerServeLifecycle drives Serve on a real loopback port: a
// clean drain on cancel, a drain whose budget runs out under a held
// in-flight request (the hard-stop branch), and a listen error.
func TestServerServeLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name string
		// delay, when positive, holds every stage call that long via
		// faultinject, so a request stays in flight through the drain.
		delay    time.Duration
		opts     []recon.Option
		addrBusy bool
		// whileUp runs once /healthz answers 200, before cancellation.
		whileUp      func(t *testing.T, base string, inj *faultinject.Injector)
		wantErr      func(error) bool
		wantDraining bool
	}{
		{
			name: "clean drain",
			whileUp: func(t *testing.T, base string, _ *faultinject.Injector) {
				resp, err := postOverHTTP(base, syntheticReq())
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var out recon.ReconstructResponse
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK || len(out.Results) != 1 || out.Results[0].NumTracks == 0 {
					t.Fatalf("reconstruct over the wire: status %d, results %+v", resp.StatusCode, out.Results)
				}
			},
			wantErr:      func(err error) bool { return err == nil },
			wantDraining: true,
		},
		{
			name:  "drain budget runs out",
			delay: 5 * time.Second,
			opts:  []recon.Option{recon.WithDrainTimeout(50 * time.Millisecond)},
			whileUp: func(t *testing.T, base string, inj *faultinject.Injector) {
				done := make(chan struct{})
				t.Cleanup(func() { <-done })
				go func() {
					defer close(done)
					if resp, err := postOverHTTP(base, syntheticReq()); err == nil {
						resp.Body.Close()
					}
				}()
				deadline := time.Now().Add(5 * time.Second)
				for inj.Stats().Delays == 0 {
					if time.Now().After(deadline) {
						t.Fatal("request never reached the held stage")
					}
					time.Sleep(time.Millisecond)
				}
			},
			wantErr:      func(err error) bool { return errors.Is(err, context.DeadlineExceeded) },
			wantDraining: true,
		},
		{
			name:     "listen error",
			addrBusy: true,
			wantErr: func(err error) bool {
				var opErr *net.OpError
				return errors.As(err, &opErr) && opErr.Op == "listen"
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rOpts := []recon.Option{recon.WithTruthLevelGraphs(1.0), recon.WithThreshold(0), recon.WithSeed(2)}
			var inj *faultinject.Injector
			if tc.delay > 0 {
				var err error
				if inj, err = faultinject.New(faultinject.Config{Seed: 1, DelayRate: 1, Delay: tc.delay}); err != nil {
					t.Fatal(err)
				}
				rOpts = append(rOpts, recon.WithStageWrapper(inj))
			}
			r, err := recon.New(testDataset(t, 0.02, 1, 1).Spec, rOpts...)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := recon.NewEngine(r, recon.WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			srv := recon.NewServer(eng, tc.opts...)

			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			if tc.addrBusy {
				defer ln.Close()
			} else {
				ln.Close()
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			served := make(chan error, 1)
			go func() { served <- srv.Serve(ctx, addr) }()

			if tc.whileUp != nil {
				base := "http://" + addr
				waitHealthy(t, base)
				if srv.Draining() {
					t.Fatal("draining before shutdown began")
				}
				tc.whileUp(t, base, inj)
				cancel()
			}
			select {
			case err := <-served:
				if !tc.wantErr(err) {
					t.Fatalf("Serve returned %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Serve did not return")
			}
			if srv.Draining() != tc.wantDraining {
				t.Fatalf("Draining() = %v after Serve, want %v", srv.Draining(), tc.wantDraining)
			}
		})
	}
}

// waitHealthy polls base/healthz until it answers 200.
func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			ok := resp.StatusCode == http.StatusOK
			resp.Body.Close()
			if ok {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never answered 200 (last err %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// postOverHTTP posts a JSON reconstruct request to a live server.
func postOverHTTP(base string, req recon.ReconstructRequest) (*http.Response, error) {
	blob, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return http.Post(base+"/v1/reconstruct", "application/json", bytes.NewReader(blob))
}

// TestChaosServerSurvives: a fault-injected server answers a burst of
// requests without ever crashing — every response is a well-formed HTTP
// status, per-event failures ride inside 200 bodies, and the panic
// counter reaches /statz.
func TestChaosServerSurvives(t *testing.T) {
	spec := testDataset(t, 0.02, 1, 1).Spec
	inj, err := faultinject.New(faultinject.Config{Seed: 3, ErrorRate: 0.2, PanicRate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := recon.New(spec,
		recon.WithTruthLevelGraphs(1.0),
		recon.WithThreshold(0),
		recon.WithSeed(2),
		recon.WithStageWrapper(inj))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := recon.NewEngine(r, recon.WithWorkers(2), recon.WithQueueDepth(2))
	if err != nil {
		t.Fatal(err)
	}
	srv := recon.NewServer(eng)

	var wg sync.WaitGroup
	codes := make([]int, 16)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := postJSON(t, srv, "/v1/reconstruct", recon.ReconstructRequest{
				Synthetic: &wire.Synthetic{Count: 4, Seed: uint64(i)},
			})
			codes[i] = w.Code
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		switch code {
		case http.StatusOK, http.StatusTooManyRequests:
		default:
			t.Fatalf("request %d: unexpected status %d under chaos", i, code)
		}
	}
	if inj.Stats().Panics > 0 && eng.Stats().PanicsRecovered == 0 {
		t.Fatal("panics fired but none recovered in engine stats")
	}
}
