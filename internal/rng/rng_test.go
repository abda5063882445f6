package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// Child stream must not simply mirror the parent stream.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split stream correlates with parent: %d collisions", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for n := 1; n < 40; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(17)
	const n, trials = 8, 80000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.1*want {
			t.Fatalf("bucket %d count %d deviates >10%% from %v", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(23)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleWithoutReplacementDistinct(t *testing.T) {
	check := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw%100) + 1
		k := int(kRaw % 110)
		s := New(seed).SampleWithoutReplacement(n, k)
		wantLen := k
		if k >= n {
			wantLen = n
		}
		if k <= 0 {
			wantLen = 0
		}
		if len(s) != wantLen {
			return false
		}
		seen := make(map[int]bool, len(s))
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleWithoutReplacementCoverage(t *testing.T) {
	// Every element of [0, n) should be reachable.
	r := New(31)
	const n, k, trials = 10, 3, 3000
	hit := make([]int, n)
	for i := 0; i < trials; i++ {
		for _, v := range r.SampleWithoutReplacement(n, k) {
			hit[v]++
		}
	}
	for i, h := range hit {
		if h == 0 {
			t.Fatalf("element %d never sampled in %d trials", i, trials)
		}
	}
}
