package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

func TestCheckServerLimits(t *testing.T) {
	cases := []struct {
		name    string
		depth   int
		drain   time.Duration
		maxBody int64
		wantErr bool
	}{
		{name: "defaults accepted", depth: 8, drain: 10 * time.Second, maxBody: 8 << 20},
		{name: "smallest limits accepted", depth: 0, drain: time.Nanosecond, maxBody: 1},
		{name: "negative queue depth rejected", depth: -1, drain: time.Second, maxBody: 1024, wantErr: true},
		{name: "zero drain rejected", drain: 0, maxBody: 1024, wantErr: true},
		{name: "negative drain rejected", drain: -time.Second, maxBody: 1024, wantErr: true},
		{name: "zero body cap rejected", drain: time.Second, maxBody: 0, wantErr: true},
		{name: "negative body cap rejected", drain: time.Second, maxBody: -1, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkServerLimits(tc.depth, tc.drain, tc.maxBody)
			if (err != nil) != tc.wantErr {
				t.Fatalf("checkServerLimits(%d, %v, %d) = %v, want error %v", tc.depth, tc.drain, tc.maxBody, err, tc.wantErr)
			}
		})
	}
}

// TestUnknownDatasetExits2 runs main in a child process with a
// capitalised -dataset: the flag parse must refuse it with exit status 2
// before any model is built, instead of serving an Ex3 spec. A serve
// that accepted the name would listen until the timeout kills it.
func TestUnknownDatasetExits2(t *testing.T) {
	if os.Getenv("SERVE_TEST_MAIN") == "1" {
		os.Args = []string{"serve", "-addr", "127.0.0.1:0", "-dataset", "CTD"}
		main()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestUnknownDatasetExits2$")
	cmd.Env = append(os.Environ(), "SERVE_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("serve -dataset CTD: %v, want exit status 2; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), `invalid value "CTD" for flag -dataset`) {
		t.Fatalf("serve -dataset CTD: not refused by the flag parse; output:\n%s", out)
	}
}
