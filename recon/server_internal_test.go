package recon

import (
	"bytes"
	"math"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/recon/wire"
)

// TestDecodeBodyHintBounded: a Content-Length reserves at most
// bodyHintMax before the body arrives, however large the declared length
// under the cap. A client that declares the cap and sends a few bytes
// must not make the server hold the cap's worth of memory.
func TestDecodeBodyHintBounded(t *testing.T) {
	const maxBody = 32 << 20
	// TotalAlloc counts every goroutine's allocations, so take the least
	// of a few single-request measurements.
	least := uint64(math.MaxUint64)
	for range 5 {
		r := httptest.NewRequest("POST", "/v1/reconstruct", strings.NewReader("{}"))
		r.Header.Set("Content-Type", wire.ContentTypeJSON)
		r.ContentLength = maxBody
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, status, err := decodeReconstructRequest(httptest.NewRecorder(), r, maxBody)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("status %d: %v", status, err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 4*bodyHintMax {
		t.Fatalf("%d bytes allocated by a request declaring %d bytes and sending 2; want at most %d",
			least, maxBody, 4*bodyHintMax)
	}
}

// TestDecodeBodyPastHint: a body longer than bodyHintMax is still read
// whole, the buffer growing past the reserved hint.
func TestDecodeBodyPastHint(t *testing.T) {
	body := append(bytes.Repeat([]byte(" "), 2*bodyHintMax), `{"synthetic":{"count":3,"seed":9}}`...)
	r := httptest.NewRequest("POST", "/v1/reconstruct", bytes.NewReader(body))
	r.Header.Set("Content-Type", wire.ContentTypeJSON)
	req, _, status, err := decodeReconstructRequest(httptest.NewRecorder(), r, 4*bodyHintMax)
	if err != nil {
		t.Fatalf("status %d: %v", status, err)
	}
	if req.Synthetic == nil || req.Synthetic.Count != 3 || req.Synthetic.Seed != 9 {
		t.Fatalf("decoded %+v", req.Synthetic)
	}
}
