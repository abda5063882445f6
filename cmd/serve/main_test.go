package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// queueFlags builds a fresh flag set with the two queue flags and parses
// args against it.
func queueFlags(t *testing.T, args []string) (*flag.FlagSet, *int, *int) {
	t.Helper()
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	queueDepth := fs.Int("queue-depth", 8, "")
	queue := fs.Int("queue", 8, "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return fs, queueDepth, queue
}

func TestResolveQueueDepth(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		want    int
		wantErr bool
	}{
		{name: "neither set keeps default", args: nil, want: 8},
		{name: "canonical flag wins", args: []string{"-queue-depth", "4"}, want: 4},
		{name: "alias alone still works", args: []string{"-queue", "3"}, want: 3},
		{name: "both set agreeing", args: []string{"-queue", "5", "-queue-depth", "5"}, want: 5},
		{name: "both set conflicting", args: []string{"-queue", "5", "-queue-depth", "6"}, wantErr: true},
		{name: "negative depth rejected", args: []string{"-queue-depth", "-1"}, wantErr: true},
		{name: "negative alias rejected", args: []string{"-queue", "-2"}, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs, depth, queue := queueFlags(t, tc.args)
			err := resolveQueueDepth(fs, depth, queue)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("want error, got queue-depth %d", *depth)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if *depth != tc.want {
				t.Fatalf("queue-depth %d, want %d", *depth, tc.want)
			}
		})
	}
}

func TestCheckServerLimits(t *testing.T) {
	cases := []struct {
		name    string
		drain   time.Duration
		maxBody int64
		wantErr bool
	}{
		{name: "defaults accepted", drain: 10 * time.Second, maxBody: 8 << 20},
		{name: "smallest limits accepted", drain: time.Nanosecond, maxBody: 1},
		{name: "zero drain rejected", drain: 0, maxBody: 1024, wantErr: true},
		{name: "negative drain rejected", drain: -time.Second, maxBody: 1024, wantErr: true},
		{name: "zero body cap rejected", drain: time.Second, maxBody: 0, wantErr: true},
		{name: "negative body cap rejected", drain: time.Second, maxBody: -1, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkServerLimits(tc.drain, tc.maxBody)
			if (err != nil) != tc.wantErr {
				t.Fatalf("checkServerLimits(%v, %d) = %v, want error %v", tc.drain, tc.maxBody, err, tc.wantErr)
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
