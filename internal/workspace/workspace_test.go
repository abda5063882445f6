package workspace

import (
	"sync"
	"testing"
)

func TestBucketFor(t *testing.T) {
	cases := []struct{ n, idx, size int }{
		{0, 0, 64},
		{1, 0, 64},
		{64, 0, 64},
		{65, 1, 128},
		{128, 1, 128},
		{129, 2, 256},
		{1 << 26, numBuckets - 1, 1 << 26},
		{1<<26 + 1, -1, 1<<26 + 1},
	}
	for _, c := range cases {
		idx, size := bucketFor(c.n)
		if idx != c.idx || size != c.size {
			t.Fatalf("bucketFor(%d) = (%d, %d), want (%d, %d)", c.n, idx, size, c.idx, c.size)
		}
	}
}

func TestGetReturnsZeroed(t *testing.T) {
	s := GetF64(100)
	if len(s) != 100 {
		t.Fatalf("len %d", len(s))
	}
	for i := range s {
		s[i] = float64(i) + 1
	}
	PutF64(s)
	// Re-acquire until we observe the recycled buffer; either way the
	// contract is that contents are zero.
	for trial := 0; trial < 4; trial++ {
		s2 := GetF64(100)
		for i, v := range s2 {
			if v != 0 {
				t.Fatalf("trial %d: recycled slice not zeroed at %d: %v", trial, i, v)
			}
		}
		PutF64(s2)
	}
}

func TestIntAndBoolPools(t *testing.T) {
	is := GetInt(33)
	bs := GetBool(500)
	if len(is) != 33 || len(bs) != 500 {
		t.Fatal("wrong lengths")
	}
	is[0], bs[0] = 7, true
	PutInt(is)
	PutBool(bs)
	is2, bs2 := GetInt(33), GetBool(500)
	if is2[0] != 0 || bs2[0] {
		t.Fatal("recycled slices not zeroed")
	}
	PutInt(is2)
	PutBool(bs2)
}

func TestOversizeRequestsFallThrough(t *testing.T) {
	n := (1 << 26) + 1
	s := GetF64(n)
	if len(s) != n {
		t.Fatalf("len %d", len(s))
	}
	PutF64(s) // must not panic, silently dropped
}

func TestGrowReusesCapacity(t *testing.T) {
	s := GetF64(100) // capacity 128
	grown := GrowF64(s, 120)
	if len(grown) != 120 || cap(grown) != cap(s) {
		t.Fatalf("grow within cap should reuse storage: len=%d cap=%d", len(grown), cap(grown))
	}
	bigger := GrowF64(grown, 1000)
	if len(bigger) != 1000 {
		t.Fatalf("grow beyond cap: len=%d", len(bigger))
	}
	PutF64(bigger)
}

func TestArenaResetReturnsSlices(t *testing.T) {
	a := NewArena()
	f := a.F64(256)
	i := a.Int(64)
	b := a.Bool(64)
	if len(f) != 256 || len(i) != 64 || len(b) != 64 {
		t.Fatal("arena allocation lengths wrong")
	}
	if a.Live() != 3 {
		t.Fatalf("Live = %d, want 3", a.Live())
	}
	a.Reset()
	if a.Live() != 0 {
		t.Fatalf("Live after Reset = %d", a.Live())
	}
}

func TestArenaCheckpointResetTo(t *testing.T) {
	a := NewArena()
	keep := a.F64(64)
	keep[0] = 42
	m := a.Checkpoint()
	a.F64(128)
	a.Int(64)
	a.ResetTo(m)
	if a.Live() != 1 {
		t.Fatalf("Live after ResetTo = %d, want 1", a.Live())
	}
	if keep[0] != 42 {
		t.Fatal("slice allocated before checkpoint was disturbed")
	}
	a.Reset()
}

func TestArenaSteadyStateZeroAllocs(t *testing.T) {
	a := NewArena()
	// Warm the pools and the arena's record slices.
	for i := 0; i < 3; i++ {
		a.F64(512)
		a.Int(512)
		a.Bool(512)
		a.Reset()
	}
	allocs := testing.AllocsPerRun(50, func() {
		a.F64(512)
		a.Int(512)
		a.Bool(512)
		a.Reset()
	})
	if allocs != 0 {
		t.Fatalf("warm arena cycle allocated %.1f times per run, want 0", allocs)
	}
}

func TestPoolsConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := 1 + (w*37+i*13)%5000
				f := GetF64(n)
				f[0] = 1
				ii := GetInt(n)
				ii[n-1] = 2
				PutF64(f)
				PutInt(ii)
			}
		}(w)
	}
	wg.Wait()
}

func TestStatsInUseBytes(t *testing.T) {
	before := InUseBytes()
	s := GetF64(1000) // bucket 1024 → 8192 bytes
	if got := InUseBytes() - before; got != 1024*8 {
		t.Fatalf("InUseBytes delta %d, want %d", got, 1024*8)
	}
	PutF64(s)
	if got := InUseBytes() - before; got != 0 {
		t.Fatalf("InUseBytes not restored: delta %d", got)
	}
}

func TestGrowNilStaysOffPools(t *testing.T) {
	before := ReadStats()
	s := GrowF64(nil, 100)
	if len(s) != 100 {
		t.Fatalf("len %d", len(s))
	}
	i := GrowInt(nil, 10)
	if len(i) != 10 {
		t.Fatal("nil grow lengths wrong")
	}
	after := ReadStats()
	if after.Gets != before.Gets || after.InUseBytes != before.InUseBytes {
		t.Fatalf("nil Grow touched the pools: %+v -> %+v", before, after)
	}
}
