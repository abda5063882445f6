package recon

import (
	"testing"

	"repro/internal/detector"
)

// TestStageOptionsReachConfig: valid values of the stage options
// nothing else in the tree sets land in the resolved configuration and
// in the default stages built from it.
func TestStageOptionsReachConfig(t *testing.T) {
	r, err := New(detector.Ex3Like(0.02), WithMaxDegree(3), WithMinTrackHits(5), WithFilterThreshold(0.25))
	if err != nil {
		t.Fatal(err)
	}
	if r.cfg.MaxDegree != 3 || r.cfg.MinTrackHits != 5 || r.cfg.Filter.Threshold != 0.25 {
		t.Fatalf("cfg MaxDegree %d, MinTrackHits %d, Filter.Threshold %v; want 3, 5, 0.25",
			r.cfg.MaxDegree, r.cfg.MinTrackHits, r.cfg.Filter.Threshold)
	}
	if b, ok := r.builder.(radiusBuilder[float64]); !ok || b.maxDegree != 3 {
		t.Fatalf("builder %#v, want a radius search capped at degree 3", r.builder)
	}
	if x, ok := r.extractor.(ccExtractor); !ok || x.minTrackHits != 5 {
		t.Fatalf("extractor %#v, want minTrackHits 5", r.extractor)
	}
	if got := r.filterModel.Threshold(); got != 0.25 {
		t.Fatalf("filter model threshold %v, want 0.25", got)
	}
}
