// Package transport is the pluggable point-to-point message transport
// under the distributed stack: internal/comm builds its ring collectives
// on a pair of Conns per rank, so the same collective code runs over
// in-process pipes in tests and over real sockets between hosts.
//
// A Conn is a reliable, ordered, message-oriented duplex link — the
// transport preserves message boundaries (Send/Recv move whole payloads,
// never byte streams), which is what a collective needs: one chunk per
// ring step. Two implementations ship:
//
//   - Loopback: in-process pipes behind the same Dial/Listen surface,
//     deterministic and dependency-free, for unit tests and single-host
//     rank simulation.
//   - TCP: length-prefixed binary frames over real sockets (frame.go
//     documents the wire format), for ranks that span processes or
//     hosts.
//
// Every blocking call takes a context.Context and honors both
// cancellation and deadlines; a call that returns because its context
// fired reports ctx.Err().
package transport

import (
	"context"
	"errors"
)

// ErrClosed is returned by operations on a Conn or Listener after Close,
// and by Recv when the peer has closed the link and no buffered message
// remains.
var ErrClosed = errors.New("transport: connection closed")

// Conn is a reliable, ordered, message-boundary-preserving duplex link
// between exactly two endpoints.
//
// Concurrency contract: one goroutine may Send while another Recvs, but
// each direction has at most one caller at a time. Close unblocks both.
type Conn interface {
	// Send transmits one message. It blocks until the transport has
	// accepted the payload, the context fires, or the conn closes. The
	// payload is copied (or serialized) before Send returns, so the
	// caller may reuse the backing array immediately.
	Send(ctx context.Context, payload []byte) error
	// Recv returns the next message in send order. It blocks until a
	// message arrives, the context fires, or the conn closes.
	Recv(ctx context.Context) ([]byte, error)
	// Close tears the link down; pending and future calls on either
	// endpoint fail with ErrClosed. Safe to call more than once.
	Close() error
}

// Listener accepts inbound connections bound to an address.
type Listener interface {
	// Accept blocks until an inbound connection arrives, the context
	// fires, or the listener closes.
	Accept(ctx context.Context) (Conn, error)
	// Addr returns the bound address in the form Dial accepts — for
	// ephemeral binds (":0", "") this is the resolved concrete address.
	Addr() string
	// Close stops accepting; blocked Accepts fail with ErrClosed.
	Close() error
}

// Network is a pluggable transport: a namespace of addresses that can be
// listened on and dialed. Implementations must be safe for concurrent
// use.
type Network interface {
	// Listen binds addr. An empty addr (or a ":0" port for socket
	// transports) requests an ephemeral address, reported by Addr().
	Listen(addr string) (Listener, error)
	// Dial connects to a listener's address, blocking until the
	// connection is established or ctx fires.
	Dial(ctx context.Context, addr string) (Conn, error)
}
