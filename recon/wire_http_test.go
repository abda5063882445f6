package recon_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/recon"
	"repro/recon/wire"
)

// HTTP surface tests: binary wire negotiation, micro-batch merging of
// mixed-format requests, and the input boundary in both formats.

// postBinary posts a binary-encoded reconstruct request with the given
// Accept header ("" to omit).
func postBinary(t *testing.T, h http.Handler, req recon.ReconstructRequest, accept string) *httptest.ResponseRecorder {
	t.Helper()
	blob, err := wire.AppendRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest("POST", "/v1/reconstruct", bytes.NewReader(blob))
	r.Header.Set("Content-Type", wire.ContentTypeBinary)
	if accept != "" {
		r.Header.Set("Accept", accept)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// TestServerBinaryWireBytes: served through Server, one fixed event
// (Ex3Like(0.02), seed 3) and its tracks must take
// at most 70% of the JSON request+response bytes in the binary
// encoding.
func TestServerBinaryWireBytes(t *testing.T) {
	srv, _ := testServer(t)
	ds := testDataset(t, 0.02, 1, 3)
	req := recon.ReconstructRequest{Events: []recon.EventJSON{*recon.EventToJSON(ds.Events[0])}}

	jsonBody, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	w := postJSON(t, srv, "/v1/reconstruct", req)
	if w.Code != http.StatusOK {
		t.Fatalf("json status %d: %s", w.Code, w.Body.String())
	}
	jsonBytes := len(jsonBody) + w.Body.Len()

	binBody, err := wire.AppendRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	w = postBinary(t, srv, req, "")
	if w.Code != http.StatusOK {
		t.Fatalf("binary status %d: %s", w.Code, w.Body.String())
	}
	binBytes := len(binBody) + w.Body.Len()
	resp, err := wire.DecodeResponse(w.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || len(resp.Results[0].Tracks) == 0 {
		t.Fatalf("binary response carries %d results, want one with tracks", len(resp.Results))
	}

	if 10*binBytes > 7*jsonBytes {
		t.Fatalf("binary request+response is %d B against %d B of JSON, want ≤ 70%%", binBytes, jsonBytes)
	}
}

func syntheticRequest() recon.ReconstructRequest {
	return recon.ReconstructRequest{Synthetic: &wire.Synthetic{Count: 2, Seed: 7}}
}

// TestServerBinaryNegotiation: the four content negotiation quadrants
// against one server, with all paths producing identical results.
func TestServerBinaryNegotiation(t *testing.T) {
	srv, _ := testServer(t)
	req := syntheticRequest()

	// JSON in, JSON out — the pre-PR 8 behavior, untouched.
	var jsonResp recon.ReconstructResponse
	w := postJSON(t, srv, "/v1/reconstruct", req)
	if w.Code != http.StatusOK {
		t.Fatalf("json/json status %d: %s", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), &jsonResp); err != nil {
		t.Fatal(err)
	}

	// Binary in, binary out (Accept absent mirrors the request encoding).
	w = postBinary(t, srv, req, "")
	if w.Code != http.StatusOK {
		t.Fatalf("bin/bin status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != wire.ContentTypeBinary {
		t.Fatalf("bin/bin Content-Type = %q", ct)
	}
	binResp, err := wire.DecodeResponse(w.Body.Bytes())
	if err != nil {
		t.Fatalf("decode binary response: %v", err)
	}
	if !reflect.DeepEqual(binResp.Results, jsonResp.Results) {
		t.Fatal("binary path results diverge from JSON path")
	}

	// Binary in, JSON out via Accept.
	w = postBinary(t, srv, req, wire.ContentTypeJSON)
	if w.Code != http.StatusOK {
		t.Fatalf("bin/json status %d: %s", w.Code, w.Body.String())
	}
	var crossResp recon.ReconstructResponse
	if err := json.Unmarshal(w.Body.Bytes(), &crossResp); err != nil {
		t.Fatalf("bin/json response is not JSON: %v", err)
	}
	if !reflect.DeepEqual(crossResp.Results, jsonResp.Results) {
		t.Fatal("bin/json results diverge")
	}

	// JSON in, binary out via Accept.
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest("POST", "/v1/reconstruct", bytes.NewReader(blob))
	r.Header.Set("Content-Type", "application/json")
	r.Header.Set("Accept", wire.ContentTypeBinary)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, r)
	if rec.Code != http.StatusOK {
		t.Fatalf("json/bin status %d: %s", rec.Code, rec.Body.String())
	}
	if _, err := wire.DecodeResponse(rec.Body.Bytes()); err != nil {
		t.Fatalf("json/bin response is not valid binary: %v", err)
	}

	// Unknown Content-Type still 415s.
	r = httptest.NewRequest("POST", "/v1/reconstruct", bytes.NewReader(blob))
	r.Header.Set("Content-Type", "text/plain")
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, r)
	if rec.Code != http.StatusUnsupportedMediaType {
		t.Fatalf("text/plain status = %d, want 415", rec.Code)
	}

	// A corrupt binary body is a clean 400, not a 500.
	r = httptest.NewRequest("POST", "/v1/reconstruct", bytes.NewReader([]byte{1, 2, 3}))
	r.Header.Set("Content-Type", wire.ContentTypeBinary)
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, r)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("corrupt binary status = %d, want 400", rec.Code)
	}
}

// postEvents posts req to the server in the binary or the JSON wire
// format; the reply comes back in the same format.
func postEvents(t *testing.T, h http.Handler, req recon.ReconstructRequest, binary bool) *httptest.ResponseRecorder {
	t.Helper()
	if binary {
		return postBinary(t, h, req, "")
	}
	return postJSON(t, h, "/v1/reconstruct", req)
}

// decodeResults decodes a 200 reply's results from either format.
func decodeResults(body []byte, binary bool) ([]recon.TrackResultJSON, error) {
	if binary {
		resp, err := wire.DecodeResponse(body)
		if err != nil {
			return nil, err
		}
		return resp.Results, nil
	}
	var resp recon.ReconstructResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// formatName labels a wire format in test output.
func formatName(binary bool) string {
	if binary {
		return "bin"
	}
	return "json"
}

// contentType is a wire format's media type.
func contentType(binary bool) string {
	if binary {
		return wire.ContentTypeBinary
	}
	return wire.ContentTypeJSON
}

// TestServerCoalescesMixedFormats: over loopback TCP, n concurrent
// one-event requests, half JSON and half binary with both Accept
// types, merge into a micro-batch, and each answers bitwise what a
// window-0 server answers for the same event. The window is far longer
// than the test and WithMaxBatchEvents is n, so the batch dispatches
// when the n-th request joins it, not when a timer fires.
func TestServerCoalescesMixedFormats(t *testing.T) {
	const n = 8
	ref, r := testServer(t)
	eng, err := recon.NewEngine(r,
		recon.WithWorkers(2),
		recon.WithQueueDepth(n),
		recon.WithBatchWindow(time.Minute),
		recon.WithMaxBatchEvents(n))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(recon.NewServer(eng))
	defer hs.Close()

	ds := testDataset(t, 0.02, n, 3)
	reqs := make([]recon.ReconstructRequest, n)
	want := make([][]recon.TrackResultJSON, n)
	for i, ev := range ds.Events {
		reqs[i] = recon.ReconstructRequest{Events: []recon.EventJSON{*recon.EventToJSON(ev)}}
		w := postJSON(t, ref, "/v1/reconstruct", reqs[i])
		if w.Code != http.StatusOK {
			t.Fatalf("window-0 request %d: status %d: %s", i, w.Code, w.Body.String())
		}
		if want[i], err = decodeResults(w.Body.Bytes(), false); err != nil {
			t.Fatal(err)
		}
		if len(want[i]) != 1 || len(want[i][0].Tracks) == 0 {
			t.Fatalf("window-0 request %d: %+v, want one result with tracks", i, want[i])
		}
	}

	type reply struct {
		status int
		body   []byte
		err    error
	}
	replies := make([]reply, n)
	var wg sync.WaitGroup
	for i := range n {
		binIn, binOut := i%2 == 1, i/2%2 == 1
		var body []byte
		if binIn {
			body, err = wire.AppendRequest(nil, &reqs[i])
		} else {
			body, err = json.Marshal(&reqs[i])
		}
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/reconstruct", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType(binIn))
		req.Header.Set("Accept", contentType(binOut))
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := hs.Client().Do(req)
			if err != nil {
				replies[i].err = err
				return
			}
			defer resp.Body.Close()
			replies[i].status = resp.StatusCode
			replies[i].body, replies[i].err = io.ReadAll(resp.Body)
		}()
	}
	wg.Wait()
	for i, rep := range replies {
		binIn, binOut := i%2 == 1, i/2%2 == 1
		label := fmt.Sprintf("request %d (%s in, %s out)", i, formatName(binIn), formatName(binOut))
		if rep.err != nil {
			t.Fatalf("%s: %v", label, rep.err)
		}
		if rep.status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", label, rep.status, rep.body)
		}
		got, err := decodeResults(rep.body, binOut)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("%s: merged results diverge from the window-0 server's", label)
		}
	}

	resp, err := hs.Client().Get(hs.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats recon.StatsJSON
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	// Every windowed dispatch counts as a batch, a batch of one request
	// too, so with one event per request only more events than batches
	// shows that requests merged.
	if stats.CoalescedEvents <= stats.CoalescedBatches {
		t.Fatalf("statz: %d events in %d batches, want a batch that merged requests",
			stats.CoalescedEvents, stats.CoalescedBatches)
	}
}

// TestServerDegenerateEvents: at every precision, in both wire formats
// and over both stage layouts, a zero-hit event is refused with 400
// "no hits", and a one-hit event answers 200 with no tracks and every
// metric 0.
func TestServerDegenerateEvents(t *testing.T) {
	ds := testDataset(t, 0.02, 1, 3)
	full := recon.EventToJSON(ds.Events[0])
	zero := recon.ReconstructRequest{Events: []recon.EventJSON{{}}}
	one := recon.ReconstructRequest{Events: []recon.EventJSON{{Hits: full.Hits[:1], Features: full.Features[:1]}}}
	layouts := []struct {
		name string
		opts []recon.Option
	}{
		{"learned", nil},
		{"truth", []recon.Option{recon.WithTruthLevelGraphs(1.0), recon.WithThreshold(0)}},
	}
	for _, prec := range []recon.Precision{recon.Float64, recon.Float32, recon.Int8} {
		for _, layout := range layouts {
			opts := append([]recon.Option{recon.WithSeed(2), recon.WithGNN(8, 2), recon.WithPrecision(prec)}, layout.opts...)
			r, err := recon.New(ds.Spec, opts...)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := recon.NewEngine(r, recon.WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			srv := recon.NewServer(eng)
			for _, binary := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/%s", prec, layout.name, formatName(binary)), func(t *testing.T) {
					w := postEvents(t, srv, zero, binary)
					if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "event 0: no hits") {
						t.Fatalf("zero hits: status %d: %s, want 400 no hits", w.Code, w.Body.String())
					}
					w = postEvents(t, srv, one, binary)
					if w.Code != http.StatusOK {
						t.Fatalf("one hit: status %d: %s", w.Code, w.Body.String())
					}
					got, err := decodeResults(w.Body.Bytes(), binary)
					if err != nil {
						t.Fatal(err)
					}
					if want := []recon.TrackResultJSON{{Tracks: [][]int{}}}; !reflect.DeepEqual(got, want) {
						t.Fatalf("one hit: %+v, want %+v", got, want)
					}
				})
			}
		}
	}
}

// TestServerRefusesNonFiniteHits: NaN and ±Inf reach the server only in
// the binary format (JSON cannot carry them). A non-finite feature or
// coordinate, or an R that overflows when derived from X and Y, is
// refused with 400 naming the event and the hit.
func TestServerRefusesNonFiniteHits(t *testing.T) {
	srv, _ := testServer(t)
	ds := testDataset(t, 0.02, 1, 3)
	fields := []struct {
		name string
		set  func(ej *recon.EventJSON, v float64)
	}{
		{"feature", func(ej *recon.EventJSON, v float64) { ej.Features[1][0] = v }},
		{"x", func(ej *recon.EventJSON, v float64) { ej.Hits[1].X = v }},
		{"z", func(ej *recon.EventJSON, v float64) { ej.Hits[1].Z = v }},
		{"r", func(ej *recon.EventJSON, v float64) { ej.Hits[1].R = v }},
		{"phi", func(ej *recon.EventJSON, v float64) { ej.Hits[1].Phi = v }},
		{"derived r", func(ej *recon.EventJSON, _ float64) {
			ej.Hits[1] = recon.HitJSON{X: math.MaxFloat64, Y: math.MaxFloat64}
		}},
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, f := range fields {
			ej := recon.EventToJSON(ds.Events[0])
			f.set(ej, v)
			w := postBinary(t, srv, recon.ReconstructRequest{Events: []recon.EventJSON{*ej}}, "")
			if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "event 0: hit 1") {
				t.Fatalf("%s = %v: status %d (%.120q), want 400 naming event 0, hit 1", f.name, v, w.Code, w.Body.String())
			}
		}
	}
}
