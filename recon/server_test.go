package recon_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/recon"
	"repro/recon/wire"
)

// testServer builds a two-worker server over an untrained truth-level
// reconstructor; opts configure the Server only.
func testServer(t *testing.T, opts ...recon.Option) (*recon.Server, *recon.Reconstructor) {
	t.Helper()
	spec := testDataset(t, 0.02, 1, 1).Spec
	// Truth-level graphs + threshold 0 make an untrained model emit the
	// true connected components as tracks — the serving smoke setup.
	r, err := recon.New(spec,
		recon.WithTruthLevelGraphs(1.0),
		recon.WithThreshold(0),
		recon.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := recon.NewEngine(r, recon.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	return recon.NewServer(eng, opts...), r
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(blob))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestServerSynthetic(t *testing.T) {
	srv, _ := testServer(t)
	w := postJSON(t, srv, "/v1/reconstruct", recon.ReconstructRequest{
		Synthetic: &wire.Synthetic{Count: 2, Seed: 7},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp recon.ReconstructResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(resp.Results))
	}
	for i, res := range resp.Results {
		if res.Error != "" {
			t.Fatalf("result %d: %s", i, res.Error)
		}
		if res.NumTracks == 0 {
			t.Fatalf("result %d: no tracks from truth-level graphs at threshold 0", i)
		}
	}
}

func TestServerExplicitEventMatchesDirect(t *testing.T) {
	srv, r := testServer(t)
	ds := testDataset(t, 0.02, 1, 55)
	ev := ds.Events[0]
	want, err := r.Reconstruct(context.Background(), ev)
	if err != nil {
		t.Fatal(err)
	}
	w := postJSON(t, srv, "/v1/reconstruct", recon.ReconstructRequest{
		Events: []recon.EventJSON{*recon.EventToJSON(ev)},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp recon.ReconstructResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("got %d results", len(resp.Results))
	}
	if resp.Results[0].NumTracks != len(want.Tracks) {
		t.Fatalf("wire event gave %d tracks, direct call %d", resp.Results[0].NumTracks, len(want.Tracks))
	}
	if resp.Results[0].EdgePrecision != want.EdgeCounts.Precision() {
		t.Fatal("wire event metrics diverge from direct call")
	}
}

func TestServerHealthAndStats(t *testing.T) {
	srv, _ := testServer(t)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("healthz: %d", w.Code)
	}

	postJSON(t, srv, "/v1/reconstruct", recon.ReconstructRequest{
		Synthetic: &wire.Synthetic{Count: 1, Seed: 3},
	})

	w = httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("GET", "/statz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("statz: %d", w.Code)
	}
	var stats recon.StatsJSON
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Requests < 1 || stats.Events < 1 {
		t.Fatalf("statz counters not advancing: %+v", stats)
	}
	if stats.LatencyP99Ms < stats.LatencyP50Ms {
		t.Fatalf("latency quantiles inverted: %+v", stats)
	}
	if stats.Workers != 2 {
		t.Fatalf("workers = %d, want 2", stats.Workers)
	}
}

func TestServerBadRequests(t *testing.T) {
	srv, _ := testServer(t)
	for name, body := range map[string]any{
		"empty":          recon.ReconstructRequest{},
		"no hits":        recon.ReconstructRequest{Events: []recon.EventJSON{{}}},
		"ragged feature": recon.ReconstructRequest{Events: []recon.EventJSON{{Hits: []recon.HitJSON{{X: 1}}, Features: [][]float64{{1}}}}},
	} {
		if w := postJSON(t, srv, "/v1/reconstruct", body); w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, w.Code)
		}
	}
	req := httptest.NewRequest("POST", "/v1/reconstruct", bytes.NewReader([]byte("{")))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", w.Code)
	}
}
