package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/detector"
	"repro/internal/kernels"
	"repro/recon"
	"repro/recon/wire"
)

// serveSmall drives recon.NewServer over a real loopback listener with
// the cmd/serve defaults (batch window off): two connections, one small
// event per request, JSON and binary alternating so the two uses of
// recon/wire sit side by side. It is the only workload with inter-op
// parallelism (two engine workers).
type serveSmall struct{ ckpt string }

// opHeader carries a traced op's id to the handler.
const opHeader = "X-Bench-Op"

// overheadWindow is how long a traced run spends on the request/direct
// pairs behind server.overhead_ms.
const overheadWindow = 2 * time.Second

func newServeSmall() *serveSmall { return &serveSmall{} }

// serveOptions is the full learned five-stage pipeline at WithGNN(16, 3).
func serveOptions(extra ...recon.Option) []recon.Option {
	return append([]recon.Option{recon.WithGNN(16, 3), recon.WithSeed(1)}, extra...)
}

func (w *serveSmall) fixture(ctx context.Context, dir string) error {
	r, err := recon.New(detector.Ex3Like(size.serveScale), serveOptions(recon.WithGNNTraining(size.serveFitEpochs, 6e-3, 2.0))...)
	if err != nil {
		return err
	}
	if err := r.Fit(ctx, trainingEvents(size.fitScale, size.serveFitEvents)); err != nil {
		return err
	}
	w.ckpt = filepath.Join(dir, "five-stage.ckpt")
	return r.SaveCheckpoint(w.ckpt)
}

// traceHandler opens the server span of a traced request and hands the
// op to the stages through the request context.
type traceHandler struct {
	next http.Handler
	tr   *tracer
}

func (h traceHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.Header.Get(opHeader))
	o := h.tr.lookup(id)
	if err != nil || o == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	sid := o.begin(spanServer)
	h.next.ServeHTTP(w, r.WithContext(withOp(r.Context(), o)))
	o.end(sid, int(r.ContentLength), 0)
}

// formats of the reconstruct endpoint; the index is 0 for JSON, 1 for
// binary throughout this file.
var contentTypes = [2]string{wire.ContentTypeJSON, wire.ContentTypeBinary}

func decodeResponse(format int, raw []byte) (*recon.ReconstructResponse, error) {
	if format == 1 {
		return wire.DecodeResponse(raw)
	}
	resp := &recon.ReconstructResponse{}
	return resp, json.Unmarshal(raw, resp)
}

func (w *serveSmall) setup(ctx context.Context, seed uint64, tr *tracer) (*instance, error) {
	spec, events := seedEvents(size.serveScale, size.serveEvents, seed)
	bodies, err := requestBodies(events)
	if err != nil {
		return nil, err
	}
	opts := serveOptions()
	if tr != nil {
		opts = append(opts, recon.WithStageWrapper(stageTracer{}))
	}
	r, err := recon.New(spec, opts...)
	if err != nil {
		return nil, err
	}
	if err := r.LoadCheckpoint(w.ckpt); err != nil {
		return nil, err
	}
	eng, err := recon.NewEngine(r, recon.WithWorkers(serveWorkers), recon.WithQueueDepth(16))
	if err != nil {
		return nil, err
	}
	var handler http.Handler = recon.NewServer(eng)
	if tr != nil {
		handler = traceHandler{handler, tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	callers := min(2, runtime.GOMAXPROCS(0))
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: callers}}
	url := "http://" + ln.Addr().String()
	stop := func() {
		client.CloseIdleConnections()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if hs.Shutdown(sctx) != nil {
			hs.Close()
		}
		<-served
	}

	var mu sync.Mutex // guards everything do records
	var (
		first     [2][]*recon.ReconstructResponse // each (format, event)'s first answer
		latMs     [2][]float64
		respBytes [2]int
		errors5xx int
	)
	first[0] = make([]*recon.ReconstructResponse, len(events))
	first[1] = make([]*recon.ReconstructResponse, len(events))

	// post sends event e in the given format and decodes the answer.
	post := func(ctx context.Context, e, format int) (*recon.ReconstructResponse, int, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/reconstruct", bytes.NewReader(bodies[format][e]))
		if err != nil {
			return nil, 0, err
		}
		req.Header.Set("Content-Type", contentTypes[format])
		if o := opFrom(ctx); o != nil {
			req.Header.Set(opHeader, strconv.Itoa(o.id))
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, 0, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, 0, err
		}
		if resp.StatusCode != http.StatusOK {
			if resp.StatusCode >= 500 {
				mu.Lock()
				errors5xx++
				mu.Unlock()
			}
			return nil, 0, fmt.Errorf("event %d: status %d: %.120s", e, resp.StatusCode, raw)
		}
		dec, err := decodeResponse(format, raw)
		if err != nil {
			return nil, 0, fmt.Errorf("event %d: a 200 body does not decode: %w", e, err)
		}
		if len(dec.Results) != 1 || dec.Results[0].Error != "" {
			return nil, 0, fmt.Errorf("event %d: bad result: %+v", e, dec.Results)
		}
		return dec, len(raw), nil
	}
	for i := 0; i < size.warmEvents; i++ {
		if _, _, err := post(ctx, i, i%2); err != nil {
			stop()
			return nil, err
		}
	}

	inst := &instance{kind: "serve", callers: callers, stepUnits: 1, gnnSteps: 3, close: stop}
	inst.do = func(ctx context.Context, i int) (float64, error) {
		// Event e is asked in JSON on one pass and in binary on the next.
		e, pass := i%len(events), i/len(events)
		format := (e + pass) % 2
		t0 := time.Now()
		dec, n, err := post(ctx, e, format)
		if err != nil {
			return 1, err
		}
		ms := float64(time.Since(t0)) / float64(time.Millisecond)
		mu.Lock()
		if first[format][e] == nil {
			first[format][e] = dec
		}
		latMs[format] = append(latMs[format], ms)
		respBytes[format] += n
		mu.Unlock()
		return 1, nil
	}
	direct := func(ctx context.Context, e int) (*recon.Result, error) {
		res, err := eng.ReconstructBatch(ctx, []*recon.Event{events[e]})
		if err != nil {
			return nil, err
		}
		return res[0], nil
	}
	inst.verify = func(ctx context.Context, rep *report) (quality, error) {
		var q quality
		for e := range events {
			want, err := direct(ctx, e)
			if err != nil {
				return q, err
			}
			q.addResult(want)
			for format := range first {
				if first[format][e] == nil { // the window did not reach this pairing
					if first[format][e], _, err = post(ctx, e, format); err != nil {
						return q, err
					}
				}
				got := first[format][e].Results[0]
				rep.check(slices.EqualFunc(got.Tracks, want.Tracks, slices.Equal[[]int]),
					"event %d (%s): served tracks differ from a direct Engine.ReconstructBatch", e, contentTypes[format])
			}
			j, b := first[0][e].Results[0], first[1][e].Results[0]
			same := slices.EqualFunc(j.Tracks, b.Tracks, slices.Equal[[]int]) && j.NumTracks == b.NumTracks &&
				j.EdgePrecision == b.EdgePrecision && j.EdgeRecall == b.EdgeRecall &&
				j.TrackEfficiency == b.TrackEfficiency && j.FakeRate == b.FakeRate
			rep.check(same, "event %d: the JSON and binary answers disagree", e)
		}
		return q, nil
	}
	inst.layers = func(ctx context.Context, rep *report, plain window) error {
		put := func(name string, v float64, n int) { rep.layer[name] = value{v, n} }
		var err error
		for format, tag := range [2]string{"json", "bin"} {
			reqBytes := 0
			decode := make([]float64, len(events))
			encode := make([]float64, 0, len(events))
			for e, body := range bodies[format] {
				reqBytes += len(body)
				t0 := time.Now()
				if format == 1 {
					_, err = wire.DecodeRequest(body)
				} else {
					err = json.Unmarshal(body, &recon.ReconstructRequest{})
				}
				decode[e] = float64(time.Since(t0)) / float64(time.Millisecond)
				if err != nil {
					return err
				}
				if resp := first[format][e]; resp != nil {
					t0 = time.Now()
					if format == 1 {
						_, err = wire.AppendResponse(nil, resp)
					} else {
						_, err = json.Marshal(resp)
					}
					encode = append(encode, float64(time.Since(t0))/float64(time.Millisecond))
					if err != nil {
						return err
					}
				}
			}
			put("wire.request_bytes_"+tag, float64(reqBytes)/float64(len(events)), len(events))
			put("wire.response_bytes_"+tag, float64(respBytes[format])/float64(max(len(latMs[format]), 1)), len(latMs[format]))
			put("wire.decode_request_ms_"+tag, median(decode), len(decode))
			put("wire.encode_response_ms_"+tag, median(encode), len(encode))
			put("server.latency_p50_ms_"+tag, median(latMs[format]), len(latMs[format]))
		}
		put("server.latency_p99_ms", percentile(sortedCopy(plain.lat), 0.99), len(plain.lat))

		// The same events straight into the engine, at the same
		// concurrency: what a request costs beyond that is HTTP, the codec
		// and admission. Each op is a pair, the request and the direct call
		// for one event back to back, and the row is the median difference
		// within a pair: the event's size and the host's speed of the
		// moment, which both swing by more than the overhead itself, are
		// the same on both sides. Which of the two goes first alternates,
		// so that neither always finds the event warm in cache.
		var diffs []float64
		pairs := runWindow(ctx, &instance{callers: callers, stepUnits: 1, do: func(ctx context.Context, i int) (float64, error) {
			e, pass := i%len(events), i/len(events)
			var reqMs, directMs float64
			var err error
			timed := func(ms *float64, f func() error) {
				if err == nil {
					t0 := time.Now()
					err = f()
					*ms = float64(time.Since(t0)) / float64(time.Millisecond)
				}
			}
			request := func() error { _, _, err := post(ctx, e, (e+pass)%2); return err }
			engine := func() error { _, err := direct(ctx, e); return err }
			if i/2%2 == 0 { // formats alternate with i, the order with i/2
				timed(&reqMs, request)
				timed(&directMs, engine)
			} else {
				timed(&directMs, engine)
				timed(&reqMs, request)
			}
			if err == nil {
				mu.Lock()
				diffs = append(diffs, reqMs-directMs)
				mu.Unlock()
			}
			return 1, err
		}}, overheadWindow, 0, nil)
		if pairs.firstErr != nil {
			return pairs.firstErr
		}
		overhead := median(diffs)
		put("server.overhead_ms", overhead, len(diffs))
		rep.check(overhead > 0, "shape guard: server.overhead_ms = %.3f, want > 0", overhead)

		resp, err := client.Get(url + "/statz")
		if err != nil {
			return err
		}
		var statz recon.StatsJSON
		err = json.NewDecoder(resp.Body).Decode(&statz)
		resp.Body.Close()
		if err != nil {
			return err
		}
		put("server.rejected_429", float64(statz.Rejected), 1)
		put("server.errors_5xx", float64(errors5xx), 1)
		put("engine.rejected", float64(statz.Rejected), 1)
		put("engine.panics_recovered", float64(statz.PanicsRecovered), 1)
		put("microbatch.coalesced_batches", float64(statz.CoalescedBatches), 1)
		put("microbatch.events_per_batch", float64(statz.CoalescedEvents)/float64(max(statz.CoalescedBatches, 1)), 1)
		// A one-event request occupies one engine worker, and the engine
		// shares the host among the workers a call actually uses.
		put("kernels.workers", float64(kernels.Budget(1, 0).Cap()), 1)
		return nil
	}
	return inst, nil
}

// requestBodies encodes one single-event request per event in both
// formats, ahead of the measured window: the client's own encoding is
// not the system under test.
func requestBodies(events []*recon.Event) (bodies [2][][]byte, err error) {
	for _, ev := range events {
		req := recon.ReconstructRequest{Events: []recon.EventJSON{*recon.EventToJSON(ev)}}
		j, err := json.Marshal(&req)
		if err != nil {
			return bodies, err
		}
		b, err := wire.AppendRequest(nil, &req)
		if err != nil {
			return bodies, err
		}
		bodies[0] = append(bodies[0], j)
		bodies[1] = append(bodies[1], b)
	}
	return bodies, nil
}
