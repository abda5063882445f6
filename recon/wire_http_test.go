package recon_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/recon"
	"repro/recon/wire"
)

// HTTP surface tests: binary wire negotiation on the server.

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
// (Ex3Like(0.02), seed 3 — loadgen's defaults) and its tracks must take
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
