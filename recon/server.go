package recon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"mime"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/detector"
	"repro/internal/tensor"
	"repro/recon/wire"
)

// The wire DTOs live in recon/wire (shared with the benchmark's serving
// workload and any external client); these aliases keep the historical
// recon names working unchanged.
type (
	// HitJSON is one detector hit on the wire.
	HitJSON = wire.Hit
	// EventJSON is one collision event on the wire.
	EventJSON = wire.Event
	// ReconstructRequest is the POST /v1/reconstruct body.
	ReconstructRequest = wire.Request
	// TrackResultJSON is one event's reconstruction on the wire.
	TrackResultJSON = wire.TrackResult
	// ReconstructResponse is the POST /v1/reconstruct reply.
	ReconstructResponse = wire.Response
)

// StatsJSON is the GET /statz reply: throughput counters, latency
// quantiles over the most recent requests, and the engine's admission
// and fault counters.
type StatsJSON struct {
	UptimeSeconds   float64 `json:"uptime_s"`
	Requests        int64   `json:"requests"`
	Events          int64   `json:"events"`
	Errors          int64   `json:"errors"`
	EventsPerSecond float64 `json:"events_per_s"`
	LatencyP50Ms    float64 `json:"latency_p50_ms"`
	LatencyP90Ms    float64 `json:"latency_p90_ms"`
	LatencyP99Ms    float64 `json:"latency_p99_ms"`
	Workers         int     `json:"workers"`
	Precision       string  `json:"precision"`

	// Robustness counters (PR 6).
	QueueCapacity   int64 `json:"queue_capacity"`    // admission window: workers + queue depth
	QueueInFlight   int64 `json:"queue_in_flight"`   // events admitted and not yet finished
	Rejected        int64 `json:"rejected_requests"` // 429s: admission-queue fast fails
	PanicsRecovered int64 `json:"panics_recovered"`  // stage panics isolated into per-event errors
	Draining        bool  `json:"draining"`          // graceful shutdown in progress

	// Micro-batching counters (PR 8); both zero when coalescing is off.
	CoalescedBatches int64 `json:"coalesced_batches"` // micro-batches dispatched
	CoalescedEvents  int64 `json:"coalesced_events"`  // events executed via merged batches
}

// serverStats tracks throughput counters and a ring of recent request
// latencies for quantile estimation.
type serverStats struct {
	mu        sync.Mutex
	start     time.Time
	requests  int64
	events    int64
	errors    int64
	latencies []time.Duration // ring buffer
	next      int
	filled    bool
}

const latencyWindow = 1024

func newServerStats() *serverStats {
	return &serverStats{start: time.Now(), latencies: make([]time.Duration, latencyWindow)}
}

func (s *serverStats) record(d time.Duration, events int, failed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requests++
	s.events += int64(events)
	if failed {
		s.errors++
	}
	s.latencies[s.next] = d
	s.next++
	if s.next == len(s.latencies) {
		s.next = 0
		s.filled = true
	}
}

func (s *serverStats) snapshot(workers int, precision string) StatsJSON {
	s.mu.Lock()
	n := s.next
	if s.filled {
		n = len(s.latencies)
	}
	window := append([]time.Duration(nil), s.latencies[:n]...)
	out := StatsJSON{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.requests,
		Events:        s.events,
		Errors:        s.errors,
		Workers:       workers,
		Precision:     precision,
	}
	s.mu.Unlock()

	if out.UptimeSeconds > 0 {
		out.EventsPerSecond = float64(out.Events) / out.UptimeSeconds
	}
	if len(window) > 0 {
		sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
		q := func(p float64) float64 {
			i := int(p * float64(len(window)-1))
			return float64(window[i]) / float64(time.Millisecond)
		}
		out.LatencyP50Ms = q(0.50)
		out.LatencyP90Ms = q(0.90)
		out.LatencyP99Ms = q(0.99)
	}
	return out
}

// Server is the HTTP JSON front-end over an Engine: POST /v1/reconstruct
// runs concurrent reconstruction, GET /healthz is a liveness/readiness
// probe (503 while draining), and GET /statz reports p50/p90/p99
// latency, throughput, and the engine's admission/fault counters.
//
// Robustness contract (see API.md "Resilience"):
//   - overload fast-fails with 429 + Retry-After instead of queueing;
//   - request bodies are size-capped (413) and must be JSON (415);
//   - a per-request deadline (WithRequestTimeout) turns a wedged batch
//     into a 503 instead of an unbounded wait;
//   - Shutdown drains gracefully: /healthz flips to draining, new
//     reconstruct work is rejected with 503, in-flight requests finish.
type Server struct {
	engine  *Engine
	stats   *serverStats
	mux     *http.ServeMux
	maxBody int64

	// Graceful-drain lifecycle: the draining flag /healthz reports, the
	// in-flight reconstruct requests Shutdown waits for, and the budget
	// Serve gives them. drainMu orders every inflight.Add before the
	// flag is set, so no Add runs once Shutdown may be in Wait.
	drainTimeout time.Duration
	drainMu      sync.Mutex
	draining     atomic.Bool
	inflight     sync.WaitGroup
}

// NewServer wraps an engine in the HTTP front-end. Relevant options:
// WithMaxBodyBytes (default 8 MiB) and WithDrainTimeout (default 10s,
// used by Serve when its context is cancelled).
func NewServer(engine *Engine, opts ...Option) *Server {
	// Keep the error-free constructor signature: an invalid knob leaves
	// its own setting at the safe default (the option returns before
	// assigning it), and every valid sibling option still applies.
	set, _ := applyOptions(opts)
	s := &Server{
		engine:       engine,
		stats:        newServerStats(),
		mux:          http.NewServeMux(),
		maxBody:      set.maxBodyBytes,
		drainTimeout: set.drainTimeout,
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statz", s.handleStatz)
	s.mux.HandleFunc("POST /v1/reconstruct", s.handleReconstruct)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown begins a graceful drain: /healthz flips to 503 "draining" so
// load balancers stop routing here, new reconstruct requests are
// rejected with 503, and the call blocks until every in-flight request
// has finished or ctx expires (ctx.Err() is returned in that case; the
// stragglers are then cut off by the HTTP server teardown). Safe to
// call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() { s.inflight.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStatz(w http.ResponseWriter, _ *http.Request) {
	snap := s.stats.snapshot(s.engine.Workers(), s.engine.Reconstructor().Precision().String())
	es := s.engine.Stats()
	snap.QueueCapacity = es.Capacity
	snap.QueueInFlight = es.InFlight
	snap.Rejected = es.Rejected
	snap.PanicsRecovered = es.PanicsRecovered
	snap.Draining = s.draining.Load()
	snap.CoalescedBatches = es.CoalescedBatches
	snap.CoalescedEvents = es.CoalescedEvents
	writeJSON(w, http.StatusOK, snap)
}

// requestFormat classifies the request body encoding: JSON (an explicit
// application/json, any +json suffix, or no Content-Type at all) or
// binary (wire.ContentTypeBinary). Anything else is a client bug worth
// a 415 rather than a decode error.
func requestFormat(r *http.Request) (binary, ok bool) {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return false, true
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return false, false
	}
	switch {
	case mt == wire.ContentTypeBinary:
		return true, true
	case mt == wire.ContentTypeJSON || strings.HasSuffix(mt, "+json"):
		return false, true
	}
	return false, false
}

// wantBinaryResponse applies the response-side negotiation rule: the
// client gets the binary encoding when its Accept header names
// application/x-recon-bin, JSON when it names application/json, and
// otherwise (absent Accept, */*) the response mirrors the request
// encoding. Error responses are always JSON regardless.
func wantBinaryResponse(r *http.Request, reqBinary bool) bool {
	accept := r.Header.Get("Accept")
	if accept == "" {
		return reqBinary
	}
	for _, part := range strings.Split(accept, ",") {
		mt, _, err := mime.ParseMediaType(strings.TrimSpace(part))
		if err != nil {
			continue
		}
		switch mt {
		case wire.ContentTypeBinary:
			return true
		case wire.ContentTypeJSON:
			return false
		}
	}
	return reqBinary
}

// bodyHintMax bounds what a request's Content-Length reserves before
// its body arrives. It covers the benchmark's ~150 KB serving events in
// one allocation; a longer body grows the buffer as its bytes come in.
const bodyHintMax = 1 << 20

// decodeReconstructRequest reads and decodes a /v1/reconstruct body in
// either encoding under the size cap. On failure the returned status
// (415/413/400) is what the caller must answer with.
func decodeReconstructRequest(w http.ResponseWriter, r *http.Request, maxBody int64) (req *ReconstructRequest, reqBinary bool, status int, err error) {
	reqBinary, ok := requestFormat(r)
	if !ok {
		return nil, false, http.StatusUnsupportedMediaType,
			fmt.Errorf("Content-Type must be %s or %s", wire.ContentTypeJSON, wire.ContentTypeBinary)
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	// A declared length within the cap sizes the buffer once, up to
	// bodyHintMax: the header alone must not reserve memory that only
	// the bytes of the body would have earned. The extra MinRead keeps
	// the read that finds EOF from growing it.
	var buf bytes.Buffer
	if n := r.ContentLength; n >= 0 && n <= maxBody {
		buf.Grow(int(min(n, bodyHintMax)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r.Body); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, reqBinary, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit)
		}
		return nil, reqBinary, http.StatusBadRequest, fmt.Errorf("read request body: %w", err)
	}
	if reqBinary {
		req, err = wire.DecodeRequest(buf.Bytes())
	} else {
		req, err = wire.DecodeRequestJSON(buf.Bytes())
	}
	if err != nil {
		return nil, reqBinary, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)
	}
	return req, reqBinary, 0, nil
}

// writeReconstructResponse writes the 200 reply in the negotiated
// encoding.
func writeReconstructResponse(w http.ResponseWriter, binary bool, resp *ReconstructResponse) {
	if !binary {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	buf, err := wire.AppendResponse(nil, resp)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "encode response: " + err.Error()})
		return
	}
	w.Header().Set("Content-Type", wire.ContentTypeBinary)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
}

func (s *Server) handleReconstruct(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if !s.enter(w, start) {
		return
	}
	defer s.inflight.Done()
	req, reqBinary, status, derr := decodeReconstructRequest(w, r, s.maxBody)
	if derr != nil {
		s.stats.record(time.Since(start), 0, true)
		writeJSON(w, status, map[string]string{"error": derr.Error()})
		return
	}
	respBinary := wantBinaryResponse(r, reqBinary)
	spec := s.engine.Reconstructor().Spec()

	events := make([]*Event, 0, len(req.Events))
	for i := range req.Events {
		ev, err := eventFromJSON(spec, &req.Events[i])
		if err != nil {
			s.stats.record(time.Since(start), 0, true)
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("event %d: %v", i, err)})
			return
		}
		events = append(events, ev)
	}
	if req.Synthetic != nil {
		count := req.Synthetic.Count
		if count <= 0 {
			count = 1
		}
		if count > 64 {
			s.stats.record(time.Since(start), 0, true)
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "synthetic.count must be ≤ 64"})
			return
		}
		gspec := spec
		gspec.NumEvents = count
		ds := detector.Generate(gspec, req.Synthetic.Seed)
		events = append(events, ds.Events...)
	}
	if len(events) == 0 {
		s.stats.record(time.Since(start), 0, true)
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "no events: supply events or synthetic"})
		return
	}

	results, err := s.engine.ReconstructCoalesced(r.Context(), events)
	if errors.Is(err, ErrOverloaded) {
		// Admission queue full: fast-fail so the client backs off instead
		// of stacking latency on an already saturated engine.
		s.stats.record(time.Since(start), 0, true)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": err.Error()})
		return
	}
	if err != nil && r.Context().Err() != nil {
		// Client went away or timed out; nothing useful to write.
		s.stats.record(time.Since(start), len(events), true)
		return
	}
	if errors.Is(err, context.DeadlineExceeded) {
		// The engine's per-request deadline (WithRequestTimeout) fired
		// while the client is still connected.
		s.stats.record(time.Since(start), len(events), true)
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "request deadline exceeded"})
		return
	}

	resp := ReconstructResponse{Results: make([]TrackResultJSON, len(events))}
	failed := err != nil
	failDetail := "reconstruction failed"
	if err != nil {
		// The engine reports the batch's first event error; surface it so
		// operators see why slots failed instead of a generic marker.
		failDetail = err.Error()
	}
	for i, res := range results {
		if res == nil {
			resp.Results[i] = TrackResultJSON{Error: failDetail}
			failed = true
			continue
		}
		tracks := res.Tracks
		if tracks == nil {
			tracks = [][]int{}
		}
		resp.Results[i] = TrackResultJSON{
			NumTracks:       len(res.Tracks),
			Tracks:          tracks,
			EdgePrecision:   res.EdgeCounts.Precision(),
			EdgeRecall:      res.EdgeCounts.Recall(),
			TrackEfficiency: res.Match.Efficiency(),
			FakeRate:        res.Match.FakeRate(),
		}
	}
	resp.Elapsed = float64(time.Since(start)) / float64(time.Millisecond)
	s.stats.record(time.Since(start), len(events), failed)
	writeReconstructResponse(w, respBinary, &resp)
}

// eventFromJSON validates and converts a wire event. Feature widths
// must match the spec the models were built for, so a missing or ragged
// feature matrix is an error. Every coordinate (R and Phi as derived)
// and feature must be finite: JSON cannot carry NaN or Inf but the
// binary format carries raw IEEE-754 bits, and both formats accept the
// same events.
func eventFromJSON(spec DetectorSpec, ej *EventJSON) (*Event, error) {
	n := len(ej.Hits)
	if n == 0 {
		return nil, fmt.Errorf("no hits")
	}
	if len(ej.Features) != n {
		return nil, fmt.Errorf("got %d feature rows for %d hits", len(ej.Features), n)
	}
	feat := tensor.New(n, spec.VertexFeatures)
	ev := &Event{Hits: make([]detector.Hit, n)}
	for i, h := range ej.Hits {
		if len(ej.Features[i]) != spec.VertexFeatures {
			return nil, fmt.Errorf("feature row %d has width %d, spec wants %d", i, len(ej.Features[i]), spec.VertexFeatures)
		}
		for j, v := range ej.Features[i] {
			if !finite(v) {
				return nil, fmt.Errorf("hit %d: feature %d is %v", i, j, v)
			}
		}
		copy(feat.Row(i), ej.Features[i])
		r, phi := h.R, h.Phi
		if r == 0 && phi == 0 {
			r, phi = math.Hypot(h.X, h.Y), math.Atan2(h.Y, h.X)
		}
		if !finite(h.X) || !finite(h.Y) || !finite(h.Z) || !finite(r) || !finite(phi) {
			return nil, fmt.Errorf("hit %d: non-finite coordinate (x=%v y=%v z=%v r=%v phi=%v)", i, h.X, h.Y, h.Z, r, phi)
		}
		ev.Hits[i] = detector.Hit{
			X: h.X, Y: h.Y, Z: h.Z,
			R: r, Phi: phi,
			Layer: h.Layer, Particle: h.Particle,
		}
	}
	if len(ej.TruthSrc) != len(ej.TruthDst) {
		return nil, fmt.Errorf("truth_src/truth_dst length mismatch")
	}
	for k := range ej.TruthSrc {
		if ej.TruthSrc[k] < 0 || ej.TruthSrc[k] >= n || ej.TruthDst[k] < 0 || ej.TruthDst[k] >= n {
			return nil, fmt.Errorf("truth edge %d out of range", k)
		}
	}
	ev.Features = feat
	ev.TruthSrc = append([]int(nil), ej.TruthSrc...)
	ev.TruthDst = append([]int(nil), ej.TruthDst...)
	return ev, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// EventToJSON converts an event to its wire form — the inverse of the
// request codec, used by clients and tests.
func EventToJSON(ev *Event) *EventJSON {
	ej := &EventJSON{
		Hits:     make([]HitJSON, ev.NumHits()),
		Features: make([][]float64, ev.NumHits()),
		TruthSrc: append([]int(nil), ev.TruthSrc...),
		TruthDst: append([]int(nil), ev.TruthDst...),
	}
	for i, h := range ev.Hits {
		ej.Hits[i] = HitJSON{X: h.X, Y: h.Y, Z: h.Z, R: h.R, Phi: h.Phi, Layer: h.Layer, Particle: h.Particle}
		ej.Features[i] = append([]float64(nil), ev.Features.Row(i)...)
	}
	return ej
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// Serve runs the front-end on addr until the context is cancelled, then
// drains gracefully: /healthz flips to draining, new reconstruct work is
// rejected, in-flight requests get up to the drain timeout
// (WithDrainTimeout, default 10s) to finish, and only then is the HTTP
// server torn down — so a SIGTERM under load never truncates a response
// that had already been admitted. It is the programmatic core of
// cmd/serve.
func (s *Server) Serve(ctx context.Context, addr string) error {
	srv := s.httpServer(addr)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), s.drainTimeout)
		defer cancel()
		if drainErr := s.Shutdown(shutCtx); drainErr != nil {
			// Drain budget exhausted with requests still in flight: hard
			// stop — waiting longer would just stall the restart.
			srv.Close()
			return drainErr
		}
		return srv.Shutdown(shutCtx)
	}
}

// Read deadlines of the HTTP server Serve runs. A client that sends
// part of its headers, or its headers and part of its body, and then
// stalls is cut off instead of holding a connection, a goroutine and
// the body buffer indefinitely. The body budget is far above what a
// max-size body takes over any working link.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 60 * time.Second
)

// httpServer is the http.Server Serve runs on addr, with its read
// deadlines set.
func (s *Server) httpServer(addr string) *http.Server {
	return &http.Server{Addr: addr, Handler: s, ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout}
}

// enter is the drain gate at the top of handleReconstruct. It counts
// the request in flight and reports true, and the caller must then
// defer s.inflight.Done(); while draining it answers 503 instead and
// reports false. The check and the Add are one step under drainMu, so
// Shutdown's Wait never misses a request that saw draining=false and
// never runs alongside an Add.
func (s *Server) enter(w http.ResponseWriter, start time.Time) bool {
	s.drainMu.Lock()
	admitted := !s.draining.Load()
	if admitted {
		s.inflight.Add(1)
	}
	s.drainMu.Unlock()
	if admitted {
		return true
	}
	s.stats.record(time.Since(start), 0, true)
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": ErrDraining.Error()})
	return false
}
