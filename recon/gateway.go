package recon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"mime"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/recon/wire"
)

// ShardState is a shard's health as the gateway sees it.
type ShardState int32

const (
	// ShardHealthy: the shard answers /healthz and receives traffic.
	ShardHealthy ShardState = iota
	// ShardSuspect: recent probe or proxy failures; the shard is skipped
	// for new routing until a probe succeeds, but not yet written off.
	ShardSuspect
	// ShardEvicted: the failure threshold was crossed. No traffic routes
	// there until the health loop sees it answer again.
	ShardEvicted
)

func (s ShardState) String() string {
	switch s {
	case ShardHealthy:
		return "healthy"
	case ShardSuspect:
		return "suspect"
	case ShardEvicted:
		return "evicted"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// gwShard is one backend engine shard plus the gateway's view of it.
type gwShard struct {
	name string
	base string // http://host:port, no trailing slash

	state    atomic.Int32 // ShardState
	fails    atomic.Int32 // consecutive probe/proxy failures
	inflight atomic.Int64 // sub-requests currently proxied here

	routed    atomic.Int64 // events successfully served by this shard
	rejected  atomic.Int64 // 429s this shard answered
	errors    atomic.Int64 // transport/5xx failures proxying to it
	evictions atomic.Int64 // times the gateway evicted it
}

func (s *gwShard) State() ShardState { return ShardState(s.state.Load()) }

// ShardStatsJSON is one shard's row in the gateway's /statz reply.
type ShardStatsJSON struct {
	Name      string `json:"name"`
	URL       string `json:"url"`
	State     string `json:"state"`
	Routed    int64  `json:"routed_events"`
	Rejected  int64  `json:"rejected"`
	Errors    int64  `json:"errors"`
	Evictions int64  `json:"evictions"`
	InFlight  int64  `json:"in_flight"`
}

// GatewayStatsJSON is the gateway's GET /statz reply.
type GatewayStatsJSON struct {
	UptimeSeconds float64          `json:"uptime_s"`
	Requests      int64            `json:"requests"`
	Events        int64            `json:"events"`
	Rejected      int64            `json:"rejected_requests"`
	Rerouted      int64            `json:"rerouted"`
	Errors        int64            `json:"errors"`
	Draining      bool             `json:"draining"`
	Shards        []ShardStatsJSON `json:"shards"`
}

// ringEntry is one virtual node on the consistent-hash ring.
type ringEntry struct {
	hash  uint64
	shard int
}

// gatewayVnodes is the number of virtual nodes per shard on the ring —
// enough that removing one shard moves only ~1/N of the keyspace and the
// per-shard load imbalance stays within a few percent.
const gatewayVnodes = 64

// ShardGateway partitions reconstruction traffic across engine shards
// (cmd/serve processes) and presents the same HTTP surface as a single
// Server: POST /v1/reconstruct, GET /healthz, GET /statz.
//
// Routing: each explicit event is keyed by the FNV-1a hash of its wire
// form and placed on a consistent-hash ring (gatewayVnodes virtual nodes
// per shard), so a stable event population keeps hitting the same shard
// across requests — warm arenas, stable latency — and adding or removing
// a shard only moves ~1/N of the keyspace. A synthetic block is keyed by
// its (count, seed). When the ring's pick is not healthy, or the shard
// answers 429, the sub-request falls back to the least-loaded healthy
// shard (fewest in-flight sub-requests). Because every shard runs the
// same deterministic engine, rerouting never changes a single result
// bit — only which process computes it.
//
// Health: a background loop (Start) probes every shard's /healthz. After
// FailThreshold consecutive failures — probe or proxy — the shard is
// evicted: no traffic routes there until a probe succeeds again, which
// restores it to healthy. A shard that reports draining is treated as
// failing (its load balancer told us to go away).
//
// Degradation follows the PR 6 admission contract: when every shard is
// saturated the gateway answers 429 + Retry-After; when no shard is
// available at all, or the gateway itself is draining, it answers 503.
type ShardGateway struct {
	shards []*gwShard
	ring   []ringEntry // sorted by hash

	client         *http.Client
	proxyTimeout   time.Duration
	healthInterval time.Duration
	failThreshold  int
	maxBody        int64

	mux   *http.ServeMux
	stats *serverStats

	rerouted atomic.Int64
	rejected atomic.Int64
	gwErrors atomic.Int64

	drainer
	startOnce sync.Once
}

// NewShardGateway builds a gateway over the given shard base URLs
// (e.g. "http://127.0.0.1:8081"). Relevant options: WithHealthInterval,
// WithFailThreshold, WithProxyTimeout, WithMaxBodyBytes,
// WithDrainTimeout. Call Start (or Serve, which does) to begin health
// probing; shards start healthy and are demoted by evidence.
func NewShardGateway(shardURLs []string, opts ...Option) (*ShardGateway, error) {
	if len(shardURLs) == 0 {
		return nil, fmt.Errorf("recon: gateway needs at least one shard")
	}
	set, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	g := &ShardGateway{
		client:         &http.Client{},
		proxyTimeout:   set.proxyTimeout,
		healthInterval: set.healthInterval,
		failThreshold:  set.failThreshold,
		maxBody:        set.maxBodyBytes,
		drainer:        drainer{drainTimeout: set.drainTimeout},
		mux:            http.NewServeMux(),
		stats:          newServerStats(),
	}
	seen := make(map[string]bool)
	for i, u := range shardURLs {
		base := trimSlash(u)
		if base == "" {
			return nil, fmt.Errorf("recon: gateway shard %d: empty URL", i)
		}
		if seen[base] {
			return nil, fmt.Errorf("recon: gateway shard %q listed twice", base)
		}
		seen[base] = true
		g.shards = append(g.shards, &gwShard{name: fmt.Sprintf("shard-%d", i), base: base})
	}
	for i, s := range g.shards {
		for v := 0; v < gatewayVnodes; v++ {
			g.ring = append(g.ring, ringEntry{hash: hashKey(fmt.Sprintf("%s#%d", s.base, v)), shard: i})
		}
	}
	sort.Slice(g.ring, func(i, j int) bool { return g.ring[i].hash < g.ring[j].hash })
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /statz", g.handleStatz)
	g.mux.HandleFunc("POST /v1/reconstruct", g.handleReconstruct)
	return g, nil
}

func trimSlash(u string) string {
	for len(u) > 0 && u[len(u)-1] == '/' {
		u = u[:len(u)-1]
	}
	return u
}

func hashKey(s string) uint64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, s)
	return h.Sum64()
}

// ServeHTTP implements http.Handler.
func (g *ShardGateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// Start launches the background health loop; it stops when ctx is
// cancelled. Safe to call once; Serve calls it for you.
func (g *ShardGateway) Start(ctx context.Context) {
	g.startOnce.Do(func() {
		go g.healthLoop(ctx)
	})
}

// Serve runs the gateway on addr until ctx is cancelled, then drains
// gracefully exactly like Server.Serve.
func (g *ShardGateway) Serve(ctx context.Context, addr string) error {
	g.Start(ctx)
	return g.serve(ctx, addr, g)
}

// healthLoop probes every shard until ctx is cancelled.
func (g *ShardGateway) healthLoop(ctx context.Context) {
	ticker := time.NewTicker(g.healthInterval)
	defer ticker.Stop()
	for {
		g.probeAll(ctx)
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

func (g *ShardGateway) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, s := range g.shards {
		wg.Add(1)
		go func(s *gwShard) {
			defer wg.Done()
			g.probe(ctx, s)
		}(s)
	}
	wg.Wait()
}

// probe hits one shard's /healthz and applies the verdict.
func (g *ShardGateway) probe(ctx context.Context, s *gwShard) {
	pctx, cancel := context.WithTimeout(ctx, g.proxyTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, s.base+"/healthz", nil)
	if err != nil {
		g.recordFailure(s)
		return
	}
	resp, err := g.client.Do(req)
	if err != nil {
		g.recordFailure(s)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Draining shards answer 503: stop routing there, same as down.
		g.recordFailure(s)
		return
	}
	g.recordSuccess(s)
}

// recordFailure notes one probe/proxy failure and evicts the shard once
// the consecutive-failure threshold is crossed.
func (g *ShardGateway) recordFailure(s *gwShard) {
	n := s.fails.Add(1)
	if int(n) >= g.failThreshold {
		if s.state.Swap(int32(ShardEvicted)) != int32(ShardEvicted) {
			s.evictions.Add(1)
		}
		return
	}
	s.state.CompareAndSwap(int32(ShardHealthy), int32(ShardSuspect))
}

// recordSuccess restores a shard to healthy (revival after eviction
// included — the health loop is the only way back in).
func (g *ShardGateway) recordSuccess(s *gwShard) {
	s.fails.Store(0)
	s.state.Store(int32(ShardHealthy))
}

func (g *ShardGateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if g.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if g.healthyCount() == 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no healthy shards"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (g *ShardGateway) healthyCount() int {
	n := 0
	for _, s := range g.shards {
		if s.State() == ShardHealthy {
			n++
		}
	}
	return n
}

func (g *ShardGateway) handleStatz(w http.ResponseWriter, _ *http.Request) {
	base := g.stats.snapshot(0, "")
	out := GatewayStatsJSON{
		UptimeSeconds: base.UptimeSeconds,
		Requests:      base.Requests,
		Events:        base.Events,
		Rejected:      g.rejected.Load(),
		Rerouted:      g.rerouted.Load(),
		Errors:        g.gwErrors.Load(),
		Draining:      g.draining.Load(),
	}
	for _, s := range g.shards {
		out.Shards = append(out.Shards, ShardStatsJSON{
			Name:      s.name,
			URL:       s.base,
			State:     s.State().String(),
			Routed:    s.routed.Load(),
			Rejected:  s.rejected.Load(),
			Errors:    s.errors.Load(),
			Evictions: s.evictions.Load(),
			InFlight:  s.inflight.Load(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// PickShard returns the index of the shard the consistent-hash ring
// assigns to key, skipping shards that are not healthy; ok is false when
// no healthy shard exists. Exported for routing tests and benchmarks —
// the serving path goes through the HTTP handler.
func (g *ShardGateway) PickShard(key uint64) (int, bool) {
	if len(g.ring) == 0 {
		return 0, false
	}
	start := sort.Search(len(g.ring), func(i int) bool { return g.ring[i].hash >= key })
	for off := 0; off < len(g.ring); off++ {
		e := g.ring[(start+off)%len(g.ring)]
		if g.shards[e.shard].State() == ShardHealthy {
			return e.shard, true
		}
	}
	return 0, false
}

// leastLoaded returns the healthy shard with the fewest in-flight
// sub-requests, excluding `not` (pass -1 to exclude none).
func (g *ShardGateway) leastLoaded(not int) (int, bool) {
	best, bestLoad := -1, int64(0)
	for i, s := range g.shards {
		if i == not || s.State() != ShardHealthy {
			continue
		}
		load := s.inflight.Load()
		if best == -1 || load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best, best != -1
}

// eventKey keys one explicit event for the ring: the FNV-1a hash of its
// wire form, so the same event routes to the same shard on every
// request (while any two shards would compute bitwise-identical results
// anyway — the key only controls locality).
func eventKey(ej *EventJSON) uint64 {
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	_ = enc.Encode(ej)
	return h.Sum64()
}

// shardGroup is the slice of one upstream request routed to one shard.
type shardGroup struct {
	shard     int
	events    []EventJSON
	positions []int // result slot in the upstream response per event
	synthetic *SyntheticJSON
	synthPos  []int // result slots for the synthetic block
}

// gatewayError classifies a sub-request failure into the status the
// gateway must answer with. For 429s, retryAfter carries the shard's
// own Retry-After hint so the proxy preserves it upstream.
type gatewayError struct {
	status     int
	msg        string
	retryAfter string
}

func (e *gatewayError) Error() string { return e.msg }

func (g *ShardGateway) handleReconstruct(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if !g.enter(w, g.stats, start) {
		return
	}
	defer g.inflight.Done()
	reqp, reqBinary, status, derr := decodeReconstructRequest(w, r, g.maxBody)
	if derr != nil {
		g.stats.record(time.Since(start), 0, true)
		writeJSON(w, status, map[string]string{"error": derr.Error()})
		return
	}
	req := *reqp
	respBinary := wantBinaryResponse(r, reqBinary)

	synthCount := 0
	if req.Synthetic != nil {
		synthCount = req.Synthetic.Count
		if synthCount <= 0 {
			synthCount = 1
		}
	}
	total := len(req.Events) + synthCount
	if total == 0 {
		g.stats.record(time.Since(start), 0, true)
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "no events: supply events or synthetic"})
		return
	}

	groups, gerr := g.partition(&req, synthCount)
	if gerr != nil {
		g.failRequest(w, start, gerr)
		return
	}

	// Fan out: each shard group proxies concurrently; results land in
	// their original slots so the merged response is order-preserving.
	results := make([]TrackResultJSON, total)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr *gatewayError
	)
	for _, grp := range groups {
		wg.Add(1)
		go func(grp shardGroup) {
			defer wg.Done()
			sub, err := g.proxyGroup(r.Context(), grp)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			mu.Lock()
			for i, pos := range grp.positions {
				results[pos] = sub.Results[i]
			}
			for i, pos := range grp.synthPos {
				results[pos] = sub.Results[len(grp.positions)+i]
			}
			mu.Unlock()
		}(grp)
	}
	wg.Wait()
	if firstErr != nil {
		g.failRequest(w, start, firstErr)
		return
	}
	g.stats.record(time.Since(start), total, false)
	writeReconstructResponse(w, respBinary, &ReconstructResponse{
		Results: results,
		Elapsed: float64(time.Since(start)) / float64(time.Millisecond),
	})
}

func (g *ShardGateway) failRequest(w http.ResponseWriter, start time.Time, gerr *gatewayError) {
	g.stats.record(time.Since(start), 0, true)
	switch gerr.status {
	case http.StatusTooManyRequests:
		g.rejected.Add(1)
		// Preserve the shard's own backoff hint; fall back to 1s only
		// when the upstream 429 carried none.
		retry := gerr.retryAfter
		if retry == "" {
			retry = "1"
		}
		w.Header().Set("Retry-After", retry)
	case http.StatusServiceUnavailable:
		g.gwErrors.Add(1)
	}
	writeJSON(w, gerr.status, map[string]string{"error": gerr.msg})
}

// partition splits the upstream request into per-shard groups along the
// consistent-hash ring. The synthetic block (if any) is routed whole,
// keyed by (count, seed) — the shard generates it from its own spec.
func (g *ShardGateway) partition(req *ReconstructRequest, synthCount int) ([]shardGroup, *gatewayError) {
	byShard := make(map[int]*shardGroup)
	grab := func(shard int) *shardGroup {
		grp, ok := byShard[shard]
		if !ok {
			grp = &shardGroup{shard: shard}
			byShard[shard] = grp
		}
		return grp
	}
	for i := range req.Events {
		shard, ok := g.PickShard(eventKey(&req.Events[i]))
		if !ok {
			return nil, &gatewayError{status: http.StatusServiceUnavailable, msg: "no healthy shards"}
		}
		grp := grab(shard)
		grp.events = append(grp.events, req.Events[i])
		grp.positions = append(grp.positions, i)
	}
	if req.Synthetic != nil {
		shard, ok := g.PickShard(hashKey(fmt.Sprintf("synthetic/%d/%d", req.Synthetic.Count, req.Synthetic.Seed)))
		if !ok {
			return nil, &gatewayError{status: http.StatusServiceUnavailable, msg: "no healthy shards"}
		}
		grp := grab(shard)
		grp.synthetic = req.Synthetic
		for k := 0; k < synthCount; k++ {
			grp.synthPos = append(grp.synthPos, len(req.Events)+k)
		}
	}
	groups := make([]shardGroup, 0, len(byShard))
	for _, grp := range byShard {
		groups = append(groups, *grp)
	}
	return groups, nil
}

// proxyGroup sends one shard group downstream, falling back to the
// least-loaded healthy shard when the primary fails or answers 429. A
// transport failure counts toward the primary's eviction threshold, so
// a shard that stops responding is drained out of the ring after
// FailThreshold consecutive strikes without waiting for the next probe.
func (g *ShardGateway) proxyGroup(ctx context.Context, grp shardGroup) (*ReconstructResponse, *gatewayError) {
	// Sub-requests travel in the binary wire format: the shard fleet is
	// our own, so no JSON fallback is needed inside the cluster, and hit
	// payloads skip the float-to-decimal round trip entirely.
	sub := ReconstructRequest{Events: grp.events, Synthetic: grp.synthetic}
	body, err := wire.AppendRequest(nil, &sub)
	if err != nil {
		return nil, &gatewayError{status: http.StatusInternalServerError, msg: "marshal sub-request: " + err.Error()}
	}
	want := len(grp.positions) + len(grp.synthPos)

	resp, gerr := g.proxyOnce(ctx, grp.shard, body, want)
	if gerr == nil {
		return resp, nil
	}
	if gerr.status == http.StatusBadRequest {
		// The shard judged the payload malformed; rerouting cannot fix a
		// client error.
		return nil, gerr
	}
	// Fall back: any healthy shard computes the same bits.
	alt, ok := g.leastLoaded(grp.shard)
	if !ok {
		if gerr.status == http.StatusTooManyRequests {
			return nil, gerr
		}
		return nil, &gatewayError{status: http.StatusServiceUnavailable, msg: "no healthy shards"}
	}
	g.rerouted.Add(1)
	resp, gerr2 := g.proxyOnce(ctx, alt, body, want)
	if gerr2 == nil {
		return resp, nil
	}
	return nil, gerr2
}

// proxyOnce performs one sub-request against one shard and classifies
// the outcome.
func (g *ShardGateway) proxyOnce(ctx context.Context, shard int, body []byte, want int) (*ReconstructResponse, *gatewayError) {
	s := g.shards[shard]
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	pctx := ctx
	if g.proxyTimeout > 0 {
		var cancel context.CancelFunc
		pctx, cancel = context.WithTimeout(ctx, g.proxyTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(pctx, http.MethodPost, s.base+"/v1/reconstruct", bytes.NewReader(body))
	if err != nil {
		return nil, &gatewayError{status: http.StatusInternalServerError, msg: err.Error()}
	}
	req.Header.Set("Content-Type", wire.ContentTypeBinary)
	req.Header.Set("Accept", wire.ContentTypeBinary)
	resp, err := g.client.Do(req)
	if err != nil {
		s.errors.Add(1)
		g.recordFailure(s)
		return nil, &gatewayError{status: http.StatusServiceUnavailable, msg: fmt.Sprintf("shard %s unreachable: %v", s.name, err)}
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		sr, err := decodeShardResponse(resp)
		if err != nil {
			s.errors.Add(1)
			g.recordFailure(s)
			return nil, &gatewayError{status: http.StatusServiceUnavailable, msg: fmt.Sprintf("shard %s: bad response: %v", s.name, err)}
		}
		if len(sr.Results) != want {
			s.errors.Add(1)
			g.recordFailure(s)
			return nil, &gatewayError{status: http.StatusServiceUnavailable,
				msg: fmt.Sprintf("shard %s: %d results for %d events", s.name, len(sr.Results), want)}
		}
		s.routed.Add(int64(want))
		g.recordSuccess(s)
		return sr, nil
	case http.StatusTooManyRequests:
		// Admission rejection is load, not ill health: the shard is alive
		// and fast-failing exactly as designed.
		s.rejected.Add(1)
		return nil, &gatewayError{
			status:     http.StatusTooManyRequests,
			msg:        readErrBody(resp.Body, "shard overloaded"),
			retryAfter: resp.Header.Get("Retry-After"),
		}
	case http.StatusBadRequest:
		return nil, &gatewayError{status: http.StatusBadRequest, msg: readErrBody(resp.Body, "bad request")}
	default:
		s.errors.Add(1)
		g.recordFailure(s)
		return nil, &gatewayError{status: http.StatusServiceUnavailable,
			msg: fmt.Sprintf("shard %s answered %d", s.name, resp.StatusCode)}
	}
}

// decodeShardResponse decodes a shard's 200 reply by its Content-Type:
// binary from an up-to-date shard, JSON from one that predates the wire
// format (mixed fleets mid-rollout).
func decodeShardResponse(resp *http.Response) (*ReconstructResponse, error) {
	if mt, _, err := mime.ParseMediaType(resp.Header.Get("Content-Type")); err == nil && mt == wire.ContentTypeBinary {
		body, err := io.ReadAll(io.LimitReader(resp.Body, int64(transport.DefaultMaxFrameBytes)+64))
		if err != nil {
			return nil, err
		}
		return wire.DecodeResponse(body)
	}
	var sr ReconstructResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, err
	}
	return &sr, nil
}

// readErrBody extracts the {"error": ...} detail a shard answered with.
func readErrBody(r io.Reader, fallback string) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(io.LimitReader(r, 4096)).Decode(&e) == nil && e.Error != "" {
		return e.Error
	}
	return fallback
}
