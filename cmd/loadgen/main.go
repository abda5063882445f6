// Command loadgen is the serving-path load harness: it drives
// concurrent /v1/reconstruct traffic — JSON or binary wire format,
// open or closed loop — against a running cmd/serve or an
// in-process engine sweep over micro-batch windows, and logs one
// summary line per run: requests, rejects, errors, throughput, p50/p99
// latency, wire bytes per request and, in open loop, the largest
// lateness.
//
// Closed loop (-rate 0): each of -conns workers keeps exactly one
// request in flight — throughput is what the server sustains. Open
// loop (-rate N): request i is due at start + i/N whatever the
// completions, every request due before the end of the run is sent
// (late if all -conns workers are busy), and its latency is timed from
// its due time, so queueing delay shows up in the latency tail instead
// of being hidden by back-pressure (the coordinated-omission trap).
//
// Modes:
//
//	loadgen -self -batch-windows 0,2ms -format both -strict
//	    in-process sweep: one engine per batch window; each windowed
//	    engine's merged responses are first checked bitwise against the
//	    unbatched window-0 reference.
//
//	loadgen -target http://host:8080 -format both -strict
//	    external target: statuses other than 200/429 (or zero
//	    throughput) fail the run.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/detector"
	"repro/recon"
	"repro/recon/wire"
)

// loadConfig is one measured run against one URL in one format.
type loadConfig struct {
	url      string
	binary   bool
	conns    int
	rate     float64 // requests/s injected; 0 = closed loop
	duration time.Duration
}

// loadResult aggregates one run's outcome.
type loadResult struct {
	requests  int64
	rejected  int64           // 429s: expected under overload
	errors    int64           // anything other than 200/429
	wireBytes int64           // request + response bytes on the wire
	events    int64           // events carried by 200 responses
	latencies []time.Duration // sorted; open loop times each from its due time
	maxLate   time.Duration   // open loop: the largest send time minus due time
	elapsed   time.Duration
	badStatus string // first unexpected status line seen, for -strict
}

// percentile reads the p-quantile from a sorted latency slice.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// windowLabel names a batch-window sweep point: BW0, BW2ms, ...
func windowLabel(d time.Duration) string {
	if d == 0 {
		return "BW0"
	}
	return "BW" + strings.ReplaceAll(d.String(), ".", "p")
}

// parseWindows parses the -batch-windows sweep list, e.g. "0,2ms,5ms".
func parseWindows(s string) ([]time.Duration, error) {
	var out []time.Duration
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if part == "0" {
			out = append(out, 0)
			continue
		}
		d, err := time.ParseDuration(part)
		if err != nil {
			return nil, fmt.Errorf("bad batch window %q: %w", part, err)
		}
		if d < 0 {
			return nil, fmt.Errorf("bad batch window %q: negative", part)
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil, errors.New("empty -batch-windows list")
	}
	return out, nil
}

// buildRequests pre-generates the client-side request population: one
// request per generated event, so decode cost on the server is real
// traffic, not synthetic-spec shorthand.
func buildRequests(spec repro.DetectorSpec, events int, seed uint64, perReq int) []recon.ReconstructRequest {
	spec.NumEvents = events
	ds := repro.GenerateDataset(spec, seed)
	var reqs []recon.ReconstructRequest
	for i := 0; i < len(ds.Events); i += perReq {
		req := recon.ReconstructRequest{}
		for j := i; j < i+perReq && j < len(ds.Events); j++ {
			req.Events = append(req.Events, *recon.EventToJSON(ds.Events[j]))
		}
		reqs = append(reqs, req)
	}
	return reqs
}

// encodeBodies renders every request in one wire format.
func encodeBodies(reqs []recon.ReconstructRequest, binary bool) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	for i := range reqs {
		if binary {
			buf, err := wire.AppendRequest(nil, &reqs[i])
			if err != nil {
				return nil, err
			}
			out[i] = buf
		} else {
			buf, err := json.Marshal(&reqs[i])
			if err != nil {
				return nil, err
			}
			out[i] = buf
		}
	}
	return out, nil
}

// runLoad drives one measured run. Workers share an atomic cursor over
// the pre-encoded bodies. In open loop they also share a request
// counter: request i is due at start + i/rate, computed rather than
// ticked, so no due request is skipped when the workers fall behind.
// The run ends when the next request would be due after the duration.
func runLoad(client *http.Client, cfg loadConfig, bodies [][]byte) *loadResult {
	contentType := wire.ContentTypeJSON
	if cfg.binary {
		contentType = wire.ContentTypeBinary
	}
	res := &loadResult{}
	var (
		mu             sync.Mutex
		cursor, issued atomic.Int64
	)
	start := time.Now()
	deadline := start.Add(cfg.duration)

	var wg sync.WaitGroup
	for c := 0; c < cfg.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lats []time.Duration
			var requests, rejected, errCount, bytesTotal, events int64
			var maxLate time.Duration
			bad := ""
			for {
				due := time.Now()
				if cfg.rate > 0 {
					i := issued.Add(1) - 1
					due = start.Add(time.Duration(float64(i) * float64(time.Second) / cfg.rate))
					if !due.Before(deadline) {
						break
					}
					time.Sleep(time.Until(due))
					maxLate = max(maxLate, time.Since(due))
				} else if !due.Before(deadline) {
					break
				}
				body := bodies[int(cursor.Add(1)-1)%len(bodies)]
				req, err := http.NewRequest(http.MethodPost, cfg.url+"/v1/reconstruct", bytes.NewReader(body))
				if err != nil {
					errCount++
					continue
				}
				req.Header.Set("Content-Type", contentType)
				req.Header.Set("Accept", contentType)
				resp, err := client.Do(req)
				if err != nil {
					errCount++
					continue
				}
				respBody, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				lat := time.Since(due)
				requests++
				bytesTotal += int64(len(body) + len(respBody))
				switch {
				case rerr != nil:
					errCount++
				case resp.StatusCode == http.StatusOK:
					lats = append(lats, lat)
					events += int64(countResults(cfg.binary, respBody))
				case resp.StatusCode == http.StatusTooManyRequests:
					rejected++
				default:
					errCount++
					if bad == "" {
						bad = fmt.Sprintf("%d: %s", resp.StatusCode, firstLine(respBody))
					}
				}
			}
			mu.Lock()
			res.requests += requests
			res.rejected += rejected
			res.errors += errCount
			res.wireBytes += bytesTotal
			res.events += events
			res.latencies = append(res.latencies, lats...)
			res.maxLate = max(res.maxLate, maxLate)
			if res.badStatus == "" {
				res.badStatus = bad
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	sort.Slice(res.latencies, func(i, j int) bool { return res.latencies[i] < res.latencies[j] })
	return res
}

// countResults counts the events a 200 response carries, in either
// encoding, without a full decode on the JSON path.
func countResults(binary bool, body []byte) int {
	if binary {
		resp, err := wire.DecodeResponse(body)
		if err != nil {
			return 0
		}
		return len(resp.Results)
	}
	var resp struct {
		Results []json.RawMessage `json:"results"`
	}
	if json.Unmarshal(body, &resp) != nil {
		return 0
	}
	return len(resp.Results)
}

func firstLine(b []byte) string {
	s := string(b)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// resultsBlob posts one request and returns the marshaled results array
// — the bitwise unit of the parity check (Elapsed legitimately varies).
func resultsBlob(client *http.Client, url string, body []byte, binary bool) ([]byte, error) {
	contentType := wire.ContentTypeJSON
	if binary {
		contentType = wire.ContentTypeBinary
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/reconstruct", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set("Accept", contentType)
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, firstLine(raw))
	}
	if binary {
		dec, err := wire.DecodeResponse(raw)
		if err != nil {
			return nil, err
		}
		return json.Marshal(dec.Results)
	}
	var dec recon.ReconstructResponse
	if err := json.Unmarshal(raw, &dec); err != nil {
		return nil, err
	}
	return json.Marshal(dec.Results)
}

// checkParity verifies the micro-batching determinism contract over
// live HTTP: every request's results through the windowed server —
// fired concurrently so requests actually coalesce, in both encodings —
// must be byte-identical to the window-0 reference.
func checkParity(client *http.Client, refURL, testURL string, bodiesJSON, bodiesBin [][]byte) error {
	refs := make([][]byte, len(bodiesJSON))
	for i, body := range bodiesJSON {
		blob, err := resultsBlob(client, refURL, body, false)
		if err != nil {
			return fmt.Errorf("reference request %d: %w", i, err)
		}
		refs[i] = blob
	}
	var wg sync.WaitGroup
	errs := make([]error, len(bodiesJSON))
	for i := range bodiesJSON {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, binary := bodiesJSON[i], false
			if i%2 == 1 {
				body, binary = bodiesBin[i], true
			}
			blob, err := resultsBlob(client, testURL, body, binary)
			if err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(blob, refs[i]) {
				errs[i] = errors.New("merged-batch results diverge from unbatched reference")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("parity request %d: %w", i, err)
		}
	}
	return nil
}

// selfServer starts an in-process server with the given batch window
// and returns its base URL and a shutdown func.
func selfServer(r *recon.Reconstructor, workers, queueDepth, maxBatch int, window time.Duration) (string, func(), error) {
	engOpts := []recon.Option{
		recon.WithWorkers(workers),
		recon.WithQueueDepth(queueDepth),
		recon.WithMaxBatchEvents(maxBatch),
	}
	if window > 0 {
		engOpts = append(engOpts, recon.WithBatchWindow(window))
	}
	eng, err := recon.NewEngine(r, engOpts...)
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: recon.NewServer(eng)}
	go func() { _ = hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = hs.Close() }, nil
}

func main() {
	target := flag.String("target", "", "base URL of a running serve instance; empty requires -self")
	self := flag.Bool("self", false, "run against in-process engines, sweeping -batch-windows")
	format := flag.String("format", "both", "wire format to drive: json, bin, or both")
	conns := flag.Int("conns", 8, "concurrent connections (closed-loop workers)")
	rate := flag.Float64("rate", 0, "open-loop request injection rate in req/s (0 = closed loop)")
	duration := flag.Duration("duration", 5*time.Second, "measured duration per run")
	events := flag.Int("events", 32, "client-side event population to cycle through")
	perReq := flag.Int("events-per-request", 1, "events carried per request")
	scale := flag.Float64("scale", 0.02, "detector spec scale for generated events")
	seed := flag.Uint64("seed", 3, "event generation seed")
	dataset := detector.Ex3
	flag.Var(&dataset, "dataset", "dataset `family`: ex3 or ctd")
	batchWindows := flag.String("batch-windows", "0,2ms", "-self sweep: comma-separated micro-batch windows")
	workers := flag.Int("workers", 4, "-self engine worker-pool size")
	queueDepth := flag.Int("queue-depth", 64, "-self engine queue depth")
	maxBatch := flag.Int("max-batch-events", 16, "-self micro-batch early-dispatch size")
	strict := flag.Bool("strict", false, "exit 1 on any non-200/429 status, zero throughput, or parity failure")
	precision := flag.String("precision", "f64", "-self engine inference precision: f64, f32, or i8")
	flag.Parse()

	if (*target == "") == !*self {
		log.Fatal("loadgen: exactly one of -target or -self is required")
	}
	prec, ok := recon.ParsePrecision(*precision)
	if !ok {
		log.Fatalf("loadgen: -precision must be f64, f32, or i8, got %q", *precision)
	}
	var formats []bool // binary?
	switch *format {
	case "json":
		formats = []bool{false}
	case "bin":
		formats = []bool{true}
	case "both":
		formats = []bool{false, true}
	default:
		log.Fatalf("loadgen: -format must be json, bin, or both, got %q", *format)
	}

	spec := dataset.Spec(*scale)
	reqs := buildRequests(spec, *events, *seed, *perReq)
	bodiesJSON, err := encodeBodies(reqs, false)
	if err != nil {
		log.Fatalf("loadgen: encode json: %v", err)
	}
	bodiesBin, err := encodeBodies(reqs, true)
	if err != nil {
		log.Fatalf("loadgen: encode binary: %v", err)
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: *conns}}
	failed := false

	runOne := func(url, lbl string) {
		for _, binary := range formats {
			fmtName, bodies := "json", bodiesJSON
			if binary {
				fmtName, bodies = "bin", bodiesBin
			}
			cfg := loadConfig{url: url, binary: binary, conns: *conns, rate: *rate, duration: *duration}
			res := runLoad(client, cfg, bodies)
			name := lbl + " " + fmtName
			secs := res.elapsed.Seconds()
			var bytesPerReq int64
			if res.requests > 0 {
				bytesPerReq = res.wireBytes / res.requests
			}
			log.Printf("%s: %d reqs (%d rejected, %d errors) rps=%.1f events/s=%.1f p50=%.2fms p99=%.2fms B/req=%d max_late=%v",
				name, res.requests, res.rejected, res.errors,
				float64(res.requests-res.rejected-res.errors)/secs, float64(res.events)/secs,
				float64(percentile(res.latencies, 0.50))/float64(time.Millisecond),
				float64(percentile(res.latencies, 0.99))/float64(time.Millisecond),
				bytesPerReq, res.maxLate)
			if res.badStatus != "" {
				log.Printf("%s: unexpected status %s", name, res.badStatus)
			}
			if *strict && (res.errors > 0 || res.requests == 0 || res.requests == res.rejected) {
				failed = true
			}
		}
	}

	if *self {
		windows, err := parseWindows(*batchWindows)
		if err != nil {
			log.Fatalf("loadgen: %v", err)
		}
		r, err := recon.New(spec,
			recon.WithTruthLevelGraphs(1.0),
			recon.WithThreshold(0),
			recon.WithSeed(2),
			recon.WithPrecision(prec))
		if err != nil {
			log.Fatal(err)
		}
		refURL, stopRef, err := selfServer(r, *workers, *queueDepth, *maxBatch, 0)
		if err != nil {
			log.Fatal(err)
		}
		defer stopRef()
		for _, w := range windows {
			url, stop := refURL, func() {}
			if w > 0 {
				url, stop, err = selfServer(r, *workers, *queueDepth, *maxBatch, w)
				if err != nil {
					log.Fatal(err)
				}
				// The determinism gate before the clock starts: merged
				// responses must be bitwise equal to the unbatched reference.
				if err := checkParity(client, refURL, url, bodiesJSON, bodiesBin); err != nil {
					log.Printf("parity check failed for %s: %v", windowLabel(w), err)
					failed = true
				}
			}
			runOne(url, windowLabel(w)+" "+prec.String())
			stop()
		}
	} else {
		url := strings.TrimRight(*target, "/")
		runOne(url, url)
	}

	if failed {
		log.Fatal("loadgen: strict mode failed (errors, zero throughput, or parity divergence)")
	}
}
