package main

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/detector"
	"repro/recon"
)

func TestPercentile(t *testing.T) {
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
	sorted := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(sorted, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := percentile(sorted, 0.5); got != 5 {
		t.Fatalf("p50 = %v", got)
	}
	if got := percentile(sorted, 1); got != 10 {
		t.Fatalf("p100 = %v", got)
	}
}

func TestWindowLabel(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{0, "BW0"},
		{2 * time.Millisecond, "BW2ms"},
		{2500 * time.Microsecond, "BW2p5ms"},
	} {
		if got := windowLabel(tc.d); got != tc.want {
			t.Fatalf("windowLabel(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

func TestParseWindows(t *testing.T) {
	got, err := parseWindows("0, 2ms,500us")
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{0, 2 * time.Millisecond, 500 * time.Microsecond}
	if len(got) != len(want) {
		t.Fatalf("parsed %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parsed %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"", "nope", "-2ms"} {
		if _, err := parseWindows(bad); err == nil {
			t.Fatalf("parseWindows(%q) accepted", bad)
		}
	}
}

func TestBuildAndEncodeBodies(t *testing.T) {
	reqs := buildRequests(detector.Ex3Like(0.01), 4, 3, 2)
	if len(reqs) != 2 || len(reqs[0].Events) != 2 {
		t.Fatalf("grouping: %d requests, %d events in first", len(reqs), len(reqs[0].Events))
	}
	jsonBodies, err := encodeBodies(reqs, false)
	if err != nil {
		t.Fatal(err)
	}
	binBodies, err := encodeBodies(reqs, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if len(binBodies[i]) >= len(jsonBodies[i]) {
			t.Fatalf("request %d: binary body (%d B) not smaller than JSON (%d B)",
				i, len(binBodies[i]), len(jsonBodies[i]))
		}
	}
}

// TestSelfSweepEndToEnd drives the real harness path in miniature: an
// in-process window-0 reference and a windowed server, the bitwise
// parity gate between them, and a short closed-loop run in each format.
func TestSelfSweepEndToEnd(t *testing.T) {
	spec := detector.Ex3Like(0.01)
	reqs := buildRequests(spec, 4, 3, 1)
	bodiesJSON, err := encodeBodies(reqs, false)
	if err != nil {
		t.Fatal(err)
	}
	bodiesBin, err := encodeBodies(reqs, true)
	if err != nil {
		t.Fatal(err)
	}

	r, err := recon.New(spec,
		recon.WithTruthLevelGraphs(1.0),
		recon.WithThreshold(0),
		recon.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	refURL, stopRef, err := selfServer(r, 2, 16, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stopRef()
	batchURL, stopBatch, err := selfServer(r, 2, 16, 4, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer stopBatch()

	client := &http.Client{}
	if err := checkParity(client, refURL, batchURL, bodiesJSON, bodiesBin); err != nil {
		t.Fatalf("parity: %v", err)
	}

	for _, binary := range []bool{false, true} {
		bodies := bodiesJSON
		if binary {
			bodies = bodiesBin
		}
		res := runLoad(client, loadConfig{
			url: batchURL, binary: binary, conns: 2, duration: 400 * time.Millisecond,
		}, bodies)
		if res.requests == 0 || res.errors > 0 || res.badStatus != "" {
			t.Fatalf("binary=%v: %d requests, %d errors, status %q",
				binary, res.requests, res.errors, res.badStatus)
		}
		if res.events == 0 {
			t.Fatalf("binary=%v: no events counted from 200 responses", binary)
		}
	}

	// Open loop: the pacer must inject roughly rate*duration requests.
	res := runLoad(client, loadConfig{
		url: refURL, binary: true, conns: 2, rate: 50, duration: 400 * time.Millisecond,
	}, bodiesBin)
	if res.requests == 0 || res.errors > 0 {
		t.Fatalf("open loop: %d requests, %d errors", res.requests, res.errors)
	}
}

// TestOpenLoopCountsQueueingDelay: one connection to a 20 ms handler
// cannot keep up with 200 req/s, so every request queues behind the
// ones before it. The open loop must still send each request due in the
// run and time it from its due time, so the queueing delay lands in the
// median instead of being omitted.
func TestOpenLoopCountsQueueingDelay(t *testing.T) {
	const handlerTime = 20 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		time.Sleep(handlerTime)
		_, _ = w.Write([]byte(`{"results":[]}`))
	}))
	defer srv.Close()

	res := runLoad(srv.Client(), loadConfig{
		url: srv.URL, conns: 1, rate: 200, duration: 300 * time.Millisecond,
	}, [][]byte{[]byte(`{}`)})
	// Requests are due at 0, 5 ms, ..., 295 ms: 60 of them.
	if res.requests != 60 || res.errors != 0 {
		t.Fatalf("sent %d requests (%d errors), want the 60 due in 300 ms at 200/s", res.requests, res.errors)
	}
	if p50 := percentile(res.latencies, 0.50); p50 <= 3*handlerTime {
		t.Fatalf("p50 latency %v hides the queueing delay (handler %v, want > %v)", p50, handlerTime, 3*handlerTime)
	}
	if res.maxLate < 10*handlerTime {
		t.Fatalf("largest lateness %v, want the backlog (> %v)", res.maxLate, 10*handlerTime)
	}
}

func TestFirstLine(t *testing.T) {
	if got := firstLine([]byte("line one\nline two")); got != "line one" {
		t.Fatalf("firstLine = %q", got)
	}
	if got := firstLine([]byte(strings.Repeat("x", 300))); len(got) != 200 {
		t.Fatalf("firstLine length = %d", len(got))
	}
}

// TestUnknownDatasetExits2 runs main in a child process with a
// capitalised -dataset: the flag parse must refuse it with exit status 2
// instead of generating Ex3 events.
func TestUnknownDatasetExits2(t *testing.T) {
	if os.Getenv("LOADGEN_TEST_MAIN") == "1" {
		os.Args = []string{"loadgen", "-self", "-dataset", "CTD"}
		main()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestUnknownDatasetExits2$")
	cmd.Env = append(os.Environ(), "LOADGEN_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("loadgen -dataset CTD: %v, want exit status 2; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), `invalid value "CTD" for flag -dataset`) {
		t.Fatalf("loadgen -dataset CTD: not refused by the flag parse; output:\n%s", out)
	}
}
