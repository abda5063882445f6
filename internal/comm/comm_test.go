package comm

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rng"
)

// runRanks executes f concurrently for each rank and waits.
func runRanks(p int, f func(rank int)) {
	var wg sync.WaitGroup
	wg.Add(p)
	for r := 0; r < p; r++ {
		go func(r int) {
			defer wg.Done()
			f(r)
		}(r)
	}
	wg.Wait()
}

func TestAllReduceSumCorrect(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8} {
		for _, n := range []int{1, 3, 7, 64, 1000} {
			g := NewGroup(p, NVLink3())
			r := rng.New(uint64(p*1000 + n))
			bufs := make([][]float64, p)
			want := make([]float64, n)
			for rank := range bufs {
				bufs[rank] = make([]float64, n)
				for i := range bufs[rank] {
					bufs[rank][i] = r.NormFloat64()
					want[i] += bufs[rank][i]
				}
			}
			runRanks(p, func(rank int) { g.AllReduceSum(rank, bufs[rank]) })
			for rank := range bufs {
				for i := range want {
					if math.Abs(bufs[rank][i]-want[i]) > 1e-9 {
						t.Fatalf("p=%d n=%d rank %d elem %d: %v != %v",
							p, n, rank, i, bufs[rank][i], want[i])
					}
				}
			}
		}
	}
}

func TestAllReduceQuick(t *testing.T) {
	check := func(seed uint64, pRaw, nRaw uint8) bool {
		p := int(pRaw%6) + 1
		n := int(nRaw%50) + 1
		g := NewGroup(p, NVLink3())
		r := rng.New(seed)
		bufs := make([][]float64, p)
		want := make([]float64, n)
		for rank := range bufs {
			bufs[rank] = make([]float64, n)
			for i := range bufs[rank] {
				bufs[rank][i] = math.Floor(r.Float64() * 10)
				want[i] += bufs[rank][i]
			}
		}
		runRanks(p, func(rank int) { g.AllReduceSum(rank, bufs[rank]) })
		for rank := range bufs {
			for i := range want {
				if math.Abs(bufs[rank][i]-want[i]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceRepeatedCalls(t *testing.T) {
	// The group must be reusable across many sequential collectives.
	const p = 4
	g := NewGroup(p, NVLink3())
	for iter := 0; iter < 20; iter++ {
		bufs := make([][]float64, p)
		for rank := range bufs {
			bufs[rank] = []float64{float64(rank + iter)}
		}
		want := 0.0
		for rank := 0; rank < p; rank++ {
			want += float64(rank + iter)
		}
		runRanks(p, func(rank int) { g.AllReduceSum(rank, bufs[rank]) })
		for rank := range bufs {
			if bufs[rank][0] != want {
				t.Fatalf("iter %d rank %d: %v != %v", iter, rank, bufs[rank][0], want)
			}
		}
	}
}

func TestBroadcast(t *testing.T) {
	for _, p := range []int{1, 2, 4, 5} {
		for root := 0; root < p; root++ {
			g := NewGroup(p, NVLink3())
			bufs := make([][]float64, p)
			for rank := range bufs {
				bufs[rank] = []float64{float64(rank), float64(rank * 2)}
			}
			runRanks(p, func(rank int) { g.Broadcast(rank, bufs[rank], root) })
			for rank := range bufs {
				if bufs[rank][0] != float64(root) || bufs[rank][1] != float64(root*2) {
					t.Fatalf("p=%d root=%d rank=%d buf=%v", p, root, rank, bufs[rank])
				}
			}
		}
	}
}

func TestModeledTimeCoalescingAdvantage(t *testing.T) {
	// k separate reductions of n elements must model strictly more time
	// than one reduction of k·n elements — the §III-D claim.
	model := NVLink3()
	const p, k, n = 4, 20, 1000
	separate := time.Duration(k) * model.RingAllReduceTime(n*8, p)
	coalesced := model.RingAllReduceTime(k*n*8, p)
	if coalesced >= separate {
		t.Fatalf("coalesced %v not faster than %v", coalesced, separate)
	}
	// The entire advantage is latency: wire terms are equal up to Duration
	// rounding of the per-call wire times.
	latencyGap := time.Duration(k-1) * time.Duration(2*(p-1)) * model.Alpha
	if diff := separate - coalesced; diff < latencyGap-time.Microsecond || diff > latencyGap+time.Microsecond {
		t.Fatalf("advantage %v, want ≈ pure latency gap %v", diff, latencyGap)
	}
}

// modeled returns the α–β model time a group has charged.
func modeled(g *Group) time.Duration { return time.Duration(g.modeledTime.Load()) }

func TestStatsAccumulate(t *testing.T) {
	const p = 2
	g := NewGroup(p, NVLink3())
	bufs := [][]float64{make([]float64, 10), make([]float64, 10)}
	runRanks(p, func(rank int) { g.AllReduceSum(rank, bufs[rank]) })
	if g.Calls() != 1 {
		t.Fatalf("calls %d, want 1", g.Calls())
	}
	if want := NVLink3().RingAllReduceTime(10*8, p); modeled(g) != want {
		t.Fatalf("modeled time %v, want %v", modeled(g), want)
	}
}

func TestRingAllReduceTimeFormula(t *testing.T) {
	m := CostModel{Alpha: time.Microsecond, BetaBytesPerSecond: 1e9}
	if m.RingAllReduceTime(1000, 1) != 0 {
		t.Fatal("P=1 should cost nothing")
	}
	got := m.RingAllReduceTime(1e9, 4)
	// 2·3 hops = 6 µs; wire = 2·1e9·(3/4)/1e9 = 1.5 s.
	want := 6*time.Microsecond + 1500*time.Millisecond
	if got != want {
		t.Fatalf("modeled %v, want %v", got, want)
	}
}

func TestReduceScatterSum(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8} {
		for _, n := range []int{1, 5, 64, 257} {
			g := NewGroup(p, NVLink3())
			r := rng.New(uint64(p*7919 + n))
			bufs := make([][]float64, p)
			want := make([]float64, n)
			for rank := range bufs {
				bufs[rank] = make([]float64, n)
				for i := range bufs[rank] {
					bufs[rank][i] = r.NormFloat64()
					want[i] += bufs[rank][i]
				}
			}
			los, his := make([]int, p), make([]int, p)
			runRanks(p, func(rank int) {
				var err error
				los[rank], his[rank], err = g.reduceScatterSum(rank, bufs[rank])
				if err != nil {
					t.Error(err)
				}
			})
			// Every element must be fully reduced in exactly one rank's
			// owned chunk, and the chunks must tile [0, n).
			covered := make([]bool, n)
			for rank := 0; rank < p; rank++ {
				for i := los[rank]; i < his[rank]; i++ {
					if covered[i] {
						t.Fatalf("p=%d n=%d: element %d owned twice", p, n, i)
					}
					covered[i] = true
					if math.Abs(bufs[rank][i]-want[i]) > 1e-9 {
						t.Fatalf("p=%d n=%d rank %d elem %d: %v != %v",
							p, n, rank, i, bufs[rank][i], want[i])
					}
				}
			}
			for i, c := range covered {
				if !c {
					t.Fatalf("p=%d n=%d: element %d unowned", p, n, i)
				}
			}
		}
	}
}

func TestPhaseCostsSumToAllReduce(t *testing.T) {
	m := NVLink3()
	for _, p := range []int{2, 3, 8} {
		n := int64(1 << 20)
		if got, want := m.RingReduceScatterTime(n, p)+m.RingAllGatherTime(n, p), m.RingAllReduceTime(n, p); got != want {
			t.Fatalf("p=%d: phases %v != all-reduce %v", p, got, want)
		}
	}
	if m.RingReduceScatterTime(1<<20, 1) != 0 || m.RingAllGatherTime(1<<20, 1) != 0 || m.BroadcastTime(1<<20, 1) != 0 {
		t.Fatal("single-rank collectives must be free")
	}
}

func TestZeroCostModelChargesNothing(t *testing.T) {
	var zero CostModel
	if zero.RingAllReduceTime(1<<30, 8) != 0 {
		t.Fatal("zero model must charge no time")
	}
	g := NewGroup(4, zero)
	bufs := make([][]float64, 4)
	for rank := range bufs {
		bufs[rank] = []float64{float64(rank), 1, 2, 3, 4}
	}
	runRanks(4, func(rank int) { g.AllReduceSum(rank, bufs[rank]) })
	if modeled(g) != 0 {
		t.Fatalf("zero model charged %v", modeled(g))
	}
	if bufs[0][0] != 0+1+2+3 {
		t.Fatalf("sum wrong: %v", bufs[0][0])
	}
}

// ringEdge is one directed ring edge seen from its two ends.
type ringEdge struct {
	send  func([]float64) error
	recv  func() ([]float64, error)
	close func()
}

// ringEdges reaches a ring edge two ways: a bare link, and the rank 0 →
// rank 1 edge of a group, through the group's chunk helpers and torn
// down by Group.Close. Both must keep the pipe semantics.
func ringEdges() []struct {
	name string
	edge func() ringEdge
} {
	return []struct {
		name string
		edge func() ringEdge
	}{
		{"link", func() ringEdge {
			l := newLink()
			return ringEdge{l.send, l.recv, l.close}
		}},
		{"group", func() ringEdge {
			g := NewGroup(2, CostModel{})
			want := -1
			return ringEdge{
				send: func(v []float64) error {
					want = len(v)
					return g.sendFloats(0, v)
				},
				recv:  func() ([]float64, error) { return g.recvFloats(1, want) },
				close: func() { g.Close() },
			}
		}},
	}
}

func TestSendCopiesPayload(t *testing.T) {
	for _, tc := range ringEdges() {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.edge()
			defer e.close()
			buf := []float64{1, 2, 3}
			if err := e.send(buf); err != nil {
				t.Fatal(err)
			}
			buf[0] = -1 // the sender reuses its buffer immediately
			got, err := e.recv()
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != 1 || got[1] != 2 || got[2] != 3 {
				t.Fatalf("payload aliased the sender's buffer: %v", got)
			}
		})
	}
}

func TestRecvAfterPeerCloseDrainsThenFails(t *testing.T) {
	for _, tc := range ringEdges() {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.edge()
			if err := e.send([]float64{42}); err != nil {
				t.Fatal(err)
			}
			e.close()
			got, err := e.recv()
			if err != nil || len(got) != 1 || got[0] != 42 {
				t.Fatalf("pre-close message lost: %v, %v", got, err)
			}
			if _, err := e.recv(); err == nil {
				t.Fatal("recv after close succeeded")
			}
			if err := e.send([]float64{1}); err == nil {
				t.Fatal("send after close succeeded")
			}
		})
	}
}

// TestClosedGroupPanics: a collective on a closed group surfaces the
// link failure as a panic, since the Group surface returns no error.
func TestClosedGroupPanics(t *testing.T) {
	g := NewGroup(2, CostModel{})
	g.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("all-reduce on a closed group did not panic")
		}
	}()
	g.AllReduceSum(0, []float64{1, 2})
}
