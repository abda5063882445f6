package recon

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/detector"
	"repro/recon/wire"
)

// Draining reports whether graceful shutdown has begun: the external
// tests' view of s.draining.
func (s *Server) Draining() bool { return s.draining.Load() }

// TestShutdownRacesEnter: requests keep arriving while Shutdown waits
// on the last in-flight one. Each is either counted before the drain
// begins or refused without touching the in-flight count, so the
// drain's Wait never runs alongside an Add. Run it under -race: an Add
// from a zero count during that Wait is a data race, and can panic the
// drain goroutine ("WaitGroup is reused before previous Wait has
// returned").
func TestShutdownRacesEnter(t *testing.T) {
	for range 200 {
		s := NewServer(nil)
		var clients sync.WaitGroup
		start := make(chan struct{})
		for range 4 {
			clients.Add(1)
			go func() {
				defer clients.Done()
				<-start
				for s.enter(httptest.NewRecorder(), time.Now()) {
					s.inflight.Done()
				}
			}()
		}
		close(start)
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		clients.Wait()
		if s.enter(httptest.NewRecorder(), time.Now()) {
			t.Fatal("a request entered after Shutdown returned")
		}
	}
}

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

// TestServeReadDeadlines: the HTTP server Serve runs has read deadlines,
// and a client that stalls in its headers or in its body is
// disconnected once they pass (shortened here to keep the test fast).
func TestServeReadDeadlines(t *testing.T) {
	r, err := New(detector.Ex3Like(0.02), WithTruthLevelGraphs(1.0), WithThreshold(0))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(r, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng).httpServer("127.0.0.1:0")
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 {
		t.Fatalf("read deadlines %v (headers), %v (request); want both set", srv.ReadHeaderTimeout, srv.ReadTimeout)
	}
	srv.ReadHeaderTimeout, srv.ReadTimeout = 100*time.Millisecond, 300*time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	for name, partial := range map[string]string{
		"headers": "POST /v1/reconstruct HTTP/1.1\r\nHost: x\r\n",
		"body": "POST /v1/reconstruct HTTP/1.1\r\nHost: x\r\nContent-Type: " + wire.ContentTypeJSON +
			"\r\nContent-Length: 1000\r\n\r\n{\"synthetic\":",
	} {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte(partial)); err != nil {
			t.Fatal(err)
		}
		// The server must close the connection: ReadAll returns at its
		// EOF (or reset), and only this side's own deadline times out.
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		_, err = io.ReadAll(conn)
		conn.Close()
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("stalled in its %s: the server still held the connection after 10s", name)
		}
	}
}
