package main

import (
	"flag"
	"io"
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
