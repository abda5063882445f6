// Package comm implements the NCCL-style ring collectives the paper's
// DDP training uses. The ring all-reduce moves real data link by link
// (reduce-scatter followed by all-gather, NCCL's algorithm), so
// synchronization costs are physically incurred, and an α–β cost model
// calibrated to the paper's hardware (NVLink 3.0) tracks the modeled
// wire time of every call.
//
// A Group is P rank goroutines in one process. Its ring is P in-process
// links, link i carrying copies of float64 chunks from rank i to rank
// (i+1) mod P. The reduction order of every collective is a function of
// (P, rank, buffer length) only, so results are bitwise reproducible
// run to run and independent of goroutine scheduling.
//
// The coalesced all-reduce optimization (§III-D of the paper) follows
// directly from this model: reducing k parameter matrices separately pays
// k·2(P−1)·α in ring latency, while one reduction of the stacked buffer
// pays it once.
package comm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
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
// whose traffic is bookkept elsewhere).
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

// Group is a fixed set of P ranks with a ring topology. Every rank
// calls each collective concurrently from its own goroutine.
type Group struct {
	P     int
	model CostModel

	// links[i] carries messages rank i → rank (i+1)%P.
	links []*link

	calls       atomic.Int64 // collective invocations (counted once, by rank 0)
	modeledTime atomic.Int64 // nanoseconds under the cost model
}

// NewGroup creates a process group of p ranks.
func NewGroup(p int, model CostModel) *Group {
	if p < 1 {
		panic(fmt.Sprintf("comm: group size %d", p))
	}
	g := &Group{P: p, model: model, links: make([]*link, p)}
	for i := range g.links {
		g.links[i] = newLink()
	}
	return g
}

// Close tears down the ring links. Collectives in flight fail.
func (g *Group) Close() error {
	for _, l := range g.links {
		l.close()
	}
	return nil
}

// Calls returns how many collectives the group has executed.
func (g *Group) Calls() int64 { return g.calls.Load() }

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

// ringErr surfaces a ring failure through the no-error Group surface.
// A link fails only once the group is closed, and a chunk of the wrong
// length means the ranks passed buffers of unequal length.
func ringErr(op string, err error) {
	if err != nil {
		panic(fmt.Sprintf("comm: %s over ring: %v", op, err))
	}
}

// charge records one collective against the cost model; rank 0 charges
// for the group.
func (g *Group) charge(rank int, d time.Duration) {
	if rank == 0 {
		g.calls.Add(1)
		g.modeledTime.Add(int64(d))
	}
}

// sendFloats ships a copy of one chunk from rank to the next hop.
func (g *Group) sendFloats(rank int, vals []float64) error {
	return g.links[rank].send(vals)
}

// recvFloats receives the previous hop's chunk of want values.
func (g *Group) recvFloats(rank, want int) ([]float64, error) {
	in, err := g.links[(rank+g.P-1)%g.P].recv()
	if err != nil {
		return nil, err
	}
	if len(in) != want {
		return nil, fmt.Errorf("comm: ring chunk %d values, want %d", len(in), want)
	}
	return in, nil
}

// AllReduceSum performs an in-place ring all-reduce (sum) of buf across
// the group: a reduce-scatter followed by an all-gather, NCCL's
// algorithm. Every rank must call it concurrently with its own buffer of
// identical length; on return each buffer holds the elementwise sum.
func (g *Group) AllReduceSum(rank int, buf []float64) {
	if g.P == 1 {
		return
	}
	// One charged collective: the composition of the two phases is the
	// all-reduce, and RingAllReduceTime is exactly their sum.
	g.charge(rank, g.model.RingAllReduceTime(int64(len(buf)*8), g.P))
	_, _, err := g.reduceScatterSum(rank, buf)
	if err == nil {
		err = g.allGather(rank, buf)
	}
	ringErr("all-reduce", err)
}

// reduceScatterSum is the reduce-scatter phase of the ring all-reduce,
// in place: after the call, rank r's buffer holds the fully reduced
// elements of its owned chunk (returned as [lo, hi)); other regions hold
// partial sums.
func (g *Group) reduceScatterSum(rank int, buf []float64) (lo, hi int, err error) {
	p := g.P
	// After P−1 steps rank r holds the fully reduced chunk (r+1) mod P.
	for s := 0; s < p-1; s++ {
		sendIdx := ((rank-s)%p + p) % p
		recvIdx := ((rank-s-1)%p + p) % p
		clo, chi := chunkBounds(len(buf), p, sendIdx)
		if err := g.sendFloats(rank, buf[clo:chi]); err != nil {
			return 0, 0, err
		}
		rlo, rhi := chunkBounds(len(buf), p, recvIdx)
		in, err := g.recvFloats(rank, rhi-rlo)
		if err != nil {
			return 0, 0, err
		}
		for i, v := range in {
			buf[rlo+i] += v
		}
	}
	lo, hi = chunkBounds(len(buf), p, (rank+1)%p)
	return lo, hi, nil
}

// allGather is the all-gather phase of the ring all-reduce: it
// circulates each rank's owned chunk (the chunk reduceScatterSum leaves
// reduced, (rank+1) mod P) so every rank's buffer ends complete.
func (g *Group) allGather(rank int, buf []float64) error {
	p := g.P
	for s := 0; s < p-1; s++ {
		sendIdx := ((rank-s+1)%p + p) % p
		recvIdx := ((rank-s)%p + p) % p
		lo, hi := chunkBounds(len(buf), p, sendIdx)
		if err := g.sendFloats(rank, buf[lo:hi]); err != nil {
			return err
		}
		rlo, rhi := chunkBounds(len(buf), p, recvIdx)
		in, err := g.recvFloats(rank, rhi-rlo)
		if err != nil {
			return err
		}
		copy(buf[rlo:rlo+len(in)], in)
	}
	return nil
}

// Broadcast copies root's buffer to every rank (ring pipeline). All ranks
// call it concurrently; on return every buf equals root's.
func (g *Group) Broadcast(rank int, buf []float64, root int) {
	if g.P == 1 {
		return
	}
	g.charge(rank, g.model.BroadcastTime(int64(len(buf)*8), g.P))
	p := g.P
	pos := ((rank-root)%p + p) % p // distance from root along the ring
	if pos != 0 {
		in, err := g.recvFloats(rank, len(buf))
		ringErr("broadcast", err)
		copy(buf, in)
	}
	if pos != p-1 { // everyone but the last forwards
		ringErr("broadcast", g.sendFloats(rank, buf))
	}
}

// linkDepth is the message buffer of a link: deep enough that a rank
// posting its chunk before the neighbor reads never rendezvous-deadlocks,
// while still exerting backpressure on a runaway sender.
const linkDepth = 64

// errLinkClosed is returned by a link's send after close, and by recv
// once the link is closed and no buffered message remains.
var errLinkClosed = errors.New("comm: ring link closed")

// link is one directed ring edge: a reliable, ordered queue of float64
// chunks. One goroutine sends and one receives; close unblocks both.
type link struct {
	msgs      chan []float64
	closeOnce sync.Once
	closed    chan struct{}
}

func newLink() *link {
	return &link{msgs: make(chan []float64, linkDepth), closed: make(chan struct{})}
}

// send queues a copy of vals, so the caller may reuse its buffer at once.
func (l *link) send(vals []float64) error {
	msg := append([]float64(nil), vals...)
	select {
	case <-l.closed:
		return errLinkClosed
	default:
	}
	select {
	case l.msgs <- msg:
		return nil
	case <-l.closed:
		return errLinkClosed
	}
}

// recv returns the next chunk in send order. Buffered chunks win over a
// concurrent close: a sender that sends then closes never loses the send.
func (l *link) recv() ([]float64, error) {
	select {
	case msg := <-l.msgs:
		return msg, nil
	default:
	}
	select {
	case msg := <-l.msgs:
		return msg, nil
	case <-l.closed:
		// Drain any message that raced with the close.
		select {
		case msg := <-l.msgs:
			return msg, nil
		default:
			return nil, errLinkClosed
		}
	}
}

func (l *link) close() { l.closeOnce.Do(func() { close(l.closed) }) }
