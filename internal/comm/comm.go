// Package comm implements the NCCL-style ring collectives the paper's
// DDP training uses, over a pluggable point-to-point transport
// (internal/transport). The ring all-reduce moves real data link by link
// (reduce-scatter followed by all-gather, NCCL's algorithm), so
// synchronization costs are physically incurred, and an α–β cost model
// calibrated to the paper's hardware (NVLink 3.0) tracks the modeled
// wire time of every call.
//
// Two deployment shapes share the same collective arithmetic:
//
//   - Group: P rank goroutines in one process, ring links as in-process
//     transport pipes (NewGroup) or over any transport.Network, TCP
//     included (NewGroupNetwork).
//   - Peer: one rank's endpoint in a multi-process ring, wired by
//     ConnectRing over real sockets.
//
// Because the reduction order is a function of (P, rank, buffer length)
// only, results are bitwise identical across transports and deployment
// shapes.
//
// The coalesced all-reduce optimization (§III-D of the paper) follows
// directly from this model: reducing k parameter matrices separately pays
// k·2(P−1)·α in ring latency, while one reduction of the stacked buffer
// pays it once.
package comm

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// CostModel is an α–β (latency–bandwidth) communication model.
type CostModel struct {
	// Alpha is the per-message link latency.
	Alpha time.Duration
	// BetaBytesPerSecond is the link bandwidth.
	BetaBytesPerSecond float64
}

// NVLink3 models the paper's Perlmutter nodes: NVLink 3.0 at 100 GB/s
// unidirectional with ~10 µs effective collective launch latency.
func NVLink3() CostModel {
	return CostModel{Alpha: 10 * time.Microsecond, BetaBytesPerSecond: 100e9}
}

// wireTime is the β term for moving n bytes, zero when the model has no
// bandwidth configured (a zero CostModel charges nothing — used by groups
// whose transport is bookkept elsewhere).
func (m CostModel) wireTime(nBytes float64) time.Duration {
	if m.BetaBytesPerSecond <= 0 {
		return 0
	}
	return time.Duration(nBytes / m.BetaBytesPerSecond * float64(time.Second))
}

// RingAllReduceTime returns the modeled wall time of a ring all-reduce of
// n bytes across p ranks: 2(p−1) latency hops plus 2n(p−1)/p bytes moved
// per rank at bandwidth β. It is exactly the reduce-scatter time plus the
// all-gather time, NCCL's decomposition.
func (m CostModel) RingAllReduceTime(nBytes int64, p int) time.Duration {
	return m.RingReduceScatterTime(nBytes, p) + m.RingAllGatherTime(nBytes, p)
}

// RingReduceScatterTime returns the modeled wall time of a ring
// reduce-scatter of n bytes across p ranks: (p−1) latency hops plus
// n(p−1)/p bytes moved per rank.
func (m CostModel) RingReduceScatterTime(nBytes int64, p int) time.Duration {
	if p <= 1 {
		return 0
	}
	return time.Duration(p-1)*m.Alpha + m.wireTime(float64(nBytes)*float64(p-1)/float64(p))
}

// RingAllGatherTime returns the modeled wall time of a ring all-gather of
// n total bytes across p ranks: (p−1) latency hops plus n(p−1)/p bytes
// moved per rank.
func (m CostModel) RingAllGatherTime(nBytes int64, p int) time.Duration {
	if p <= 1 {
		return 0
	}
	return time.Duration(p-1)*m.Alpha + m.wireTime(float64(nBytes)*float64(p-1)/float64(p))
}

// BroadcastTime returns the modeled wall time of a ring-pipeline
// broadcast of n bytes across p ranks.
func (m CostModel) BroadcastTime(nBytes int64, p int) time.Duration {
	if p <= 1 {
		return 0
	}
	return time.Duration(p-1)*m.Alpha + m.wireTime(float64(nBytes))
}

// Group is a fixed set of P ranks with a ring topology. Since the
// transport rebase it is a thin shell over P Peers: NewGroup wires the
// ring with in-process transport.Pipe links, NewGroupNetwork wires it
// over any transport.Network (real TCP sockets included), and every
// collective runs the identical Peer arithmetic either way — so results
// are bitwise independent of the transport.
type Group struct {
	P     int
	model CostModel

	peers []*Peer
	stats *ringStats
}

// NewGroup creates a process group of p ranks over in-process pipes.
func NewGroup(p int, model CostModel) *Group {
	if p < 1 {
		panic(fmt.Sprintf("comm: group size %d", p))
	}
	g := &Group{P: p, model: model, stats: &ringStats{}}
	g.peers = make([]*Peer, p)
	for rank := range g.peers {
		g.peers[rank] = &Peer{Rank: rank, P: p, model: model, stats: g.stats}
	}
	// links[i] carries messages rank i → rank (i+1)%P.
	for i := 0; i < p; i++ {
		a, b := transport.Pipe()
		g.peers[i].next = a
		g.peers[(i+1)%p].prev = b
	}
	return g
}

// NewGroupNetwork creates a process group of p ranks whose ring links
// run over net — with a TCP network the collectives move through real
// sockets, byte-identical to what p separate processes using
// ConnectRing would exchange. addrs lists each rank's listen address;
// nil requests p ephemeral addresses. The caller should Close the group
// to release the connections.
func NewGroupNetwork(p int, model CostModel, net transport.Network, addrs []string) (*Group, error) {
	if p < 1 {
		return nil, fmt.Errorf("comm: group size %d", p)
	}
	if addrs == nil {
		addrs = make([]string, p)
	}
	if len(addrs) != p {
		return nil, fmt.Errorf("comm: %d addrs for %d ranks", len(addrs), p)
	}
	g := &Group{P: p, model: model, stats: &ringStats{}}
	if p == 1 {
		g.peers = []*Peer{{Rank: 0, P: 1, model: model, stats: g.stats}}
		return g, nil
	}
	// Bind every rank's listener first so ring dials cannot race an
	// unbound neighbor, resolving ephemeral addresses as we go.
	listeners := make([]transport.Listener, p)
	for rank := 0; rank < p; rank++ {
		ln, err := net.Listen(addrs[rank])
		if err != nil {
			for _, l := range listeners[:rank] {
				l.Close()
			}
			return nil, fmt.Errorf("comm: ring listen %q: %w", addrs[rank], err)
		}
		listeners[rank] = ln
		addrs[rank] = ln.Addr()
	}
	defer func() {
		for _, ln := range listeners {
			ln.Close()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	next := make([]transport.Conn, p)
	prev := make([]transport.Conn, p)
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, err := net.Dial(ctx, addrs[(rank+1)%p])
			if err == nil {
				next[rank] = c
				return
			}
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("comm: ring dial %q: %w", addrs[(rank+1)%p], err)
			}
			mu.Unlock()
			cancel()
		}(rank)
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, err := listeners[rank].Accept(ctx)
			if err == nil {
				prev[rank] = c
				return
			}
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("comm: ring accept on %q: %w", addrs[rank], err)
			}
			mu.Unlock()
			cancel()
		}(rank)
	}
	wg.Wait()
	if firstErr != nil {
		for _, c := range append(next, prev...) {
			if c != nil {
				c.Close()
			}
		}
		return nil, firstErr
	}
	g.peers = make([]*Peer, p)
	for rank := 0; rank < p; rank++ {
		g.peers[rank] = &Peer{Rank: rank, P: p, next: next[rank], prev: prev[rank], model: model, stats: g.stats}
	}
	return g, nil
}

// Peer returns rank's endpoint — the handle a rank goroutine uses
// directly when it wants contexts and errors instead of the legacy
// panic-on-failure Group surface.
func (g *Group) Peer(rank int) *Peer { return g.peers[rank] }

// Close tears down the ring links. Collectives in flight fail.
func (g *Group) Close() error {
	var first error
	for _, pe := range g.peers {
		if err := pe.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Calls returns how many collectives the group has executed.
func (g *Group) Calls() int64 { return atomic.LoadInt64(&g.stats.calls) }

// BytesMoved returns total payload bytes transferred across all links.
func (g *Group) BytesMoved() int64 { return atomic.LoadInt64(&g.stats.bytesMoved) }

// ModeledTime returns the accumulated α–β model time across collectives.
func (g *Group) ModeledTime() time.Duration {
	return time.Duration(atomic.LoadInt64(&g.stats.modeledTime))
}

// ResetStats zeroes the accumulated statistics.
func (g *Group) ResetStats() {
	atomic.StoreInt64(&g.stats.calls, 0)
	atomic.StoreInt64(&g.stats.bytesMoved, 0)
	atomic.StoreInt64(&g.stats.modeledTime, 0)
}

// chunkBounds splits n elements into P contiguous chunks.
func chunkBounds(n, p, idx int) (lo, hi int) {
	size := (n + p - 1) / p
	lo = idx * size
	hi = lo + size
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// ringErr surfaces a transport failure through the legacy no-error Group
// surface. In-process pipes cannot fail unless the group was closed;
// network-backed groups propagate real wire errors the same way.
func ringErr(op string, err error) {
	if err != nil {
		panic(fmt.Sprintf("comm: %s over transport: %v", op, err))
	}
}

// AllReduceSum performs an in-place ring all-reduce (sum) of buf across
// the group: a reduce-scatter followed by an all-gather, NCCL's
// algorithm. Every rank must call it concurrently with its own buffer of
// identical length; on return each buffer holds the elementwise sum.
func (g *Group) AllReduceSum(rank int, buf []float64) {
	ringErr("all-reduce", g.peers[rank].AllReduceSum(context.Background(), buf))
}

// ReduceScatterSum performs an in-place ring reduce-scatter (sum): after
// the call, rank r's buffer holds the fully reduced elements of its owned
// chunk (returned as [lo, hi)); other regions hold partial sums. Every
// rank must call it concurrently with equal-length buffers.
func (g *Group) ReduceScatterSum(rank int, buf []float64) (lo, hi int) {
	lo, hi, err := g.peers[rank].ReduceScatterSum(context.Background(), buf)
	ringErr("reduce-scatter", err)
	return lo, hi
}

// AllGather circulates each rank's owned chunk (the chunk ReduceScatterSum
// leaves reduced: (rank+1) mod P) so every rank's buffer ends complete.
// Every rank must call it concurrently with equal-length buffers.
func (g *Group) AllGather(rank int, buf []float64) {
	ringErr("all-gather", g.peers[rank].AllGather(context.Background(), buf))
}

// Broadcast copies root's buffer to every rank (ring pipeline). All ranks
// call it concurrently; on return every buf equals root's.
func (g *Group) Broadcast(rank int, buf []float64, root int) {
	ringErr("broadcast", g.peers[rank].Broadcast(context.Background(), buf, root))
}
