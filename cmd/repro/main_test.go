package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runRepro calls run in-process and returns its exit status and output.
func runRepro(t *testing.T, ctx context.Context, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(ctx, args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestExitStatus(t *testing.T) {
	bg := context.Background()
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	missing := filepath.Join(t.TempDir(), "missing.gob")
	for _, tc := range []struct {
		name string
		ctx  context.Context
		args []string
		want int
	}{
		{"no subcommand", bg, nil, 2},
		{"help", bg, []string{"-h"}, 0},
		{"unknown subcommand", bg, []string{"figure5"}, 2},
		{"subcommand help", bg, []string{"scaling", "-h"}, 0},
		{"undefined flag", bg, []string{"table1", "-procs", "2"}, 2},
		{"non-integer procs", bg, []string{"figure3", "-procs", "1,x"}, 2},
		{"procs below 1", bg, []string{"figure3", "-procs", "0"}, 2},
		{"unknown dataset", bg, []string{"figure3", "-dataset", "CTD"}, 2},
		{"empty ranks", bg, []string{"scaling", "-ranks", " , "}, 2},
		{"unknown strategy", bg, []string{"scaling", "-strategies", "permatrix,nope"}, 2},
		{"bucketed strategy", bg, []string{"scaling", "-strategies", "bucketed"}, 2},
		{"empty strategies", bg, []string{"scaling", "-strategies", ","}, 2},
		{"unknown exp", bg, []string{"ablation", "-exp", "nope"}, 2},
		{"unknown impl", bg, []string{"trainpipe", "-impl", "nope"}, 2},
		{"unknown sync", bg, []string{"trainpipe", "-sync", "nope"}, 2},
		{"bucketed sync", bg, []string{"trainpipe", "-sync", "bucketed"}, 2},
		{"missing dataset", bg, []string{"trainpipe", "-i", missing}, 1},
		{"interrupted figure3", cancelled, []string{"figure3", "-scale", "0.02", "-events", "3", "-hidden", "8", "-steps", "2", "-procs", "1,2"}, 1},
		{"interrupted trainpipe", cancelled, []string{"trainpipe", "-epochs", "1"}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runRepro(t, tc.ctx, tc.args...)
			if code != tc.want {
				t.Fatalf("repro %s: exit %d, want %d; stderr:\n%s", strings.Join(tc.args, " "), code, tc.want, stderr)
			}
			if code != 0 && stderr == "" {
				t.Fatalf("repro %s: exit %d with nothing on stderr", strings.Join(tc.args, " "), code)
			}
		})
	}
}

func TestUsageListsSubcommands(t *testing.T) {
	_, _, stderr := runRepro(t, context.Background())
	for _, sc := range []string{"table1", "figure3", "figure4", "ablation", "scaling", "trainpipe"} {
		if !strings.Contains(stderr, "  "+sc+" ") {
			t.Errorf("usage does not list %s:\n%s", sc, stderr)
		}
	}
}

func TestTable1Rows(t *testing.T) {
	code, out, stderr := runRepro(t, context.Background(), "table1", "-events", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, name := range []string{"CTD", "Ex3"} {
		if !regexp.MustCompile(`(?m)^` + name + ` +2 `).MatchString(out) {
			t.Errorf("no %s row over 2 graphs:\n%s", name, out)
		}
	}
}

func TestFigure4SkipsFullGraphs(t *testing.T) {
	code, out, stderr := runRepro(t, context.Background(), "figure4", "-scale", "0.02", "-events", "4", "-epochs", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !regexp.MustCompile(`skipped [1-9][0-9]* graphs`).MatchString(out) {
		t.Fatalf("full-graph training skipped no graphs:\n%s", out)
	}
}

// The PyG baseline trains on the very subgraphs the bulk sampler draws,
// so the two impls print one loss trajectory.
func TestTrainpipeOursMatchesPyG(t *testing.T) {
	losses := func(impl string) string {
		code, out, stderr := runRepro(t, context.Background(), "trainpipe", "-epochs", "1", "-procs", "2", "-impl", impl)
		if code != 0 {
			t.Fatalf("-impl %s: exit %d: %s", impl, code, stderr)
		}
		return strings.Join(regexp.MustCompile(`loss=[0-9.]+`).FindAllString(out, -1), " ")
	}
	ours, pyg := losses("ours"), losses("pyg")
	if ours == "" || ours != pyg {
		t.Fatalf("ours %q, pyg %q", ours, pyg)
	}
}

func TestScalingChecksHold(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scaling.json")
	code, out, stderr := runRepro(t, context.Background(),
		"scaling", "-ranks", "1,2", "-bulk", "1,2", "-epochs", "1", "-events", "2", "-out", path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.HasSuffix(out, "parity_ok=true comm_claim_ok=true\nwrote "+path+"\n") {
		t.Fatalf("cross-cell checks did not hold:\n%s", out)
	}
	rec, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"parity_ok": true`, `"comm_claim_ok": true`, `"name": "Scaling_P2_k2_coalesced"`} {
		if !bytes.Contains(rec, []byte(field)) {
			t.Errorf("record lacks %s", field)
		}
	}
	// The sweep measures no allocations, so the record claims none.
	for _, key := range []string{`"bytes_per_op"`, `"allocs_per_op"`} {
		if bytes.Contains(rec, []byte(key)) {
			t.Errorf("record carries %s, which the sweep never measures", key)
		}
	}
}
