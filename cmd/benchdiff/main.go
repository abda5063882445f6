// Command benchdiff compares two BENCH_*.json records produced by
// cmd/bench and fails (exit 1) on performance regressions, making perf
// trajectories mechanically checkable in CI and review:
//
//	go run ./cmd/benchdiff old.json new.json [-ns-tol 10]
//
// A regression is any shared benchmark whose ns/op grew by more than
// -ns-tol percent (default 10), or whose allocs/op grew at all — the
// zero-allocation contract of the hot kernels admits no tolerance.
// Benchmarks present in only one record are reported but never fail the
// diff (suites legitimately grow).
//
// Pair mode compares suffix-paired rows WITHIN one record instead:
//
//	go run ./cmd/benchdiff -pair _f64:_f32 [-pair-min-bytes-drop 25] BENCH_5.json
//
// Every benchmark named X<old-suffix> is matched with X<new-suffix> and
// the ns/op and B/op ratios are reported — how the precision (or any
// other suffixed variant) family compares on the same host and run.
// With -pair-min-bytes-drop N, the diff fails unless every pair's B/op
// dropped by at least N percent, gating e.g. the float32 bandwidth win
// mechanically. Unpaired rows are ignored.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
)

// benchResult mirrors the cmd/bench BenchResult fields benchdiff reads.
type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// record mirrors the cmd/bench Record fields benchdiff reads.
type record struct {
	Date       string        `json:"date"`
	MaxProcs   int           `json:"maxprocs"`
	Benchmarks []benchResult `json:"benchmarks"`
}

func load(path string) (*record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func pct(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return 100 * (new - old) / old
}

// runPairMode compares rows named X<oldSuf> against X<newSuf> within
// one record, printing the ns/op and B/op ratios, and returns the
// number of pairs whose B/op reduction is below minBytesDrop percent.
func runPairMode(rec *record, oldSuf, newSuf string, minBytesDrop float64, matchRe *regexp.Regexp) int {
	byName := map[string]benchResult{}
	for _, b := range rec.Benchmarks {
		byName[b.Name] = b
	}
	type pair struct {
		base     string
		old, new benchResult
	}
	var pairs []pair
	for _, b := range rec.Benchmarks {
		if !strings.HasSuffix(b.Name, oldSuf) {
			continue
		}
		base := strings.TrimSuffix(b.Name, oldSuf)
		if matchRe != nil && !matchRe.MatchString(base) {
			continue
		}
		nb, ok := byName[base+newSuf]
		if !ok {
			fmt.Printf("%-40s   (no %s twin)\n", b.Name, newSuf)
			continue
		}
		pairs = append(pairs, pair{base, b, nb})
	}
	if len(pairs) == 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: no %s/%s pairs found\n", oldSuf, newSuf)
		os.Exit(2)
	}

	failures := 0
	fmt.Printf("%-40s %12s %12s %8s %12s %12s %8s\n",
		"benchmark", oldSuf+" ns", newSuf+" ns", "ns ratio", oldSuf+" B/op", newSuf+" B/op", "ΔB%")
	for _, p := range pairs {
		nsRatio := 0.0
		if p.new.NsPerOp > 0 {
			nsRatio = p.old.NsPerOp / p.new.NsPerOp
		}
		bytesDrop := 0.0
		if p.old.BytesPerOp > 0 {
			bytesDrop = 100 * float64(p.old.BytesPerOp-p.new.BytesPerOp) / float64(p.old.BytesPerOp)
		}
		verdict := ""
		if minBytesDrop > 0 && bytesDrop < minBytesDrop {
			verdict = fmt.Sprintf("  FAIL: B/op drop %.1f%% < %.0f%%", bytesDrop, minBytesDrop)
			failures++
		}
		fmt.Printf("%-40s %12.0f %12.0f %7.2fx %12d %12d %+7.1f%%%s\n",
			p.base, p.old.NsPerOp, p.new.NsPerOp, nsRatio,
			p.old.BytesPerOp, p.new.BytesPerOp, -bytesDrop, verdict)
	}
	return failures
}

func main() {
	nsTol := flag.Float64("ns-tol", 10, "ns/op growth tolerance in percent")
	match := flag.String("match", "", "only compare benchmarks whose name matches this regexp")
	pairSuffixes := flag.String("pair", "", "pair mode: compare rows suffixed OLD:NEW (e.g. _f64:_f32) within ONE record")
	pairMinBytesDrop := flag.Float64("pair-min-bytes-drop", 0, "pair mode: fail unless every pair's B/op dropped by at least this percent")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: benchdiff [flags] old.json new.json\n")
		fmt.Fprintf(flag.CommandLine.Output(), "       benchdiff -pair OLDSUF:NEWSUF [flags] record.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	var pairRe *regexp.Regexp
	var err error
	if *match != "" {
		pairRe, err = regexp.Compile(*match)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: -match: %v\n", err)
			os.Exit(2)
		}
	}
	if *pairSuffixes != "" {
		parts := strings.SplitN(*pairSuffixes, ":", 2)
		if len(parts) != 2 || parts[0] == "" || parts[1] == "" || flag.NArg() != 1 {
			flag.Usage()
			os.Exit(2)
		}
		rec, err := load(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
		failures := runPairMode(rec, parts[0], parts[1], *pairMinBytesDrop, pairRe)
		if failures > 0 {
			fmt.Printf("\nbenchdiff: %d pair gate failure(s)\n", failures)
			os.Exit(1)
		}
		fmt.Println("\nbenchdiff: all pairs within gate")
		return
	}
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}

	oldRec, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	newRec, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	matchRe := pairRe
	if matchRe != nil {
		filter := func(bs []benchResult) []benchResult {
			var out []benchResult
			for _, b := range bs {
				if matchRe.MatchString(b.Name) {
					out = append(out, b)
				}
			}
			return out
		}
		oldRec.Benchmarks = filter(oldRec.Benchmarks)
		newRec.Benchmarks = filter(newRec.Benchmarks)
	}
	if oldRec.MaxProcs != newRec.MaxProcs {
		fmt.Printf("NOTE: maxprocs differs (%d vs %d); ns/op comparison may be meaningless\n",
			oldRec.MaxProcs, newRec.MaxProcs)
	}

	oldBy := map[string]benchResult{}
	for _, b := range oldRec.Benchmarks {
		oldBy[b.Name] = b
	}
	seen := map[string]bool{}

	regressions := 0
	fmt.Printf("%-44s %14s %14s %8s %8s\n", "benchmark", "old ns/op", "new ns/op", "Δns%", "Δallocs")
	for _, nb := range newRec.Benchmarks {
		seen[nb.Name] = true
		ob, ok := oldBy[nb.Name]
		if !ok {
			fmt.Printf("%-44s %14s %14.0f %8s %8s  (new)\n", nb.Name, "-", nb.NsPerOp, "-", "-")
			continue
		}
		dNs := pct(ob.NsPerOp, nb.NsPerOp)
		dAllocs := nb.AllocsPerOp - ob.AllocsPerOp
		verdict := ""
		if dNs > *nsTol {
			verdict = "  REGRESSION: ns/op"
			regressions++
		}
		if dAllocs > 0 {
			verdict += "  REGRESSION: allocs/op"
			regressions++
		}
		fmt.Printf("%-44s %14.0f %14.0f %+7.1f%% %+8d%s\n",
			nb.Name, ob.NsPerOp, nb.NsPerOp, dNs, dAllocs, verdict)
	}
	for _, ob := range oldRec.Benchmarks {
		if !seen[ob.Name] {
			fmt.Printf("%-44s %14.0f %14s %8s %8s  (removed)\n", ob.Name, ob.NsPerOp, "-", "-", "-")
		}
	}

	if regressions > 0 {
		fmt.Printf("\nbenchdiff: %d regression(s) beyond tolerance (ns/op > +%.0f%% or any allocs/op growth)\n",
			regressions, *nsTol)
		os.Exit(1)
	}
	fmt.Println("\nbenchdiff: no regressions")
}
