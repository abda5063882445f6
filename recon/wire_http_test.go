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

func syntheticRequest() recon.ReconstructRequest {
	return recon.ReconstructRequest{Synthetic: &recon.SyntheticJSON{Count: 2, Seed: 7}}
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
