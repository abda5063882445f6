package transport

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"time"
)

// aLongTimeAgo is a non-zero past time; setting it as a deadline makes
// pending socket I/O fail immediately (the net package's own idiom for
// cancellation).
var aLongTimeAgo = time.Unix(1, 0)

// TCP is the socket-backed Network: length-prefixed binary frames (see
// frame.go) over real TCP connections, so ranks can span processes and
// hosts. The zero value is ready to use.
type TCP struct {
	// MaxFrameBytes caps the payload size either side will send or
	// accept (DefaultMaxFrameBytes when 0). Both endpoints of a link
	// should agree.
	MaxFrameBytes int
}

func (t *TCP) max() int {
	if t.MaxFrameBytes > 0 {
		return t.MaxFrameBytes
	}
	return DefaultMaxFrameBytes
}

// Listen binds a TCP address ("host:port"; ":0" for an ephemeral port,
// reported by Addr()).
func (t *TCP) Listen(addr string) (Listener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{ln: ln.(*net.TCPListener), max: t.max()}, nil
}

// Dial connects to a TCP listener.
func (t *TCP) Dial(ctx context.Context, addr string) (Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return newTCPConn(c, t.max()), nil
}

type tcpListener struct {
	ln  *net.TCPListener
	max int
}

func (l *tcpListener) Accept(ctx context.Context) (Conn, error) {
	// Cancellation: a fired context forces the pending Accept to time
	// out immediately; the deadline is cleared again afterwards so the
	// listener stays usable.
	stop := context.AfterFunc(ctx, func() { _ = l.ln.SetDeadline(aLongTimeAgo) })
	defer func() {
		if stop() {
			return
		}
		_ = l.ln.SetDeadline(time.Time{})
	}()
	c, err := l.ln.Accept()
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if errors.Is(err, net.ErrClosed) {
			return nil, ErrClosed
		}
		return nil, err
	}
	return newTCPConn(c, l.max), nil
}

func (l *tcpListener) Addr() string { return l.ln.Addr().String() }

func (l *tcpListener) Close() error { return l.ln.Close() }

// tcpConn frames messages over one TCP connection. Reads are buffered;
// writes coalesce header+payload into one scratch buffer reused across
// sends, so a steady-state ring step costs one syscall each way and no
// per-message allocation on the send side.
type tcpConn struct {
	c   net.Conn
	max int

	rmu sync.Mutex
	br  *bufio.Reader

	wmu  sync.Mutex
	wbuf []byte
}

func newTCPConn(c net.Conn, max int) *tcpConn {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // collectives are latency-bound small frames
	}
	return &tcpConn{c: c, max: max, br: bufio.NewReaderSize(c, 64<<10)}
}

// withCancel arms ctx-driven cancellation around one I/O call: a fired
// context slams the relevant deadline so the blocking read or write
// returns, and the deadline is restored (or the context's own deadline
// installed) around the call.
func (c *tcpConn) withCancel(ctx context.Context, set func(time.Time) error, op func() error) error {
	if d, ok := ctx.Deadline(); ok {
		_ = set(d)
	}
	stop := context.AfterFunc(ctx, func() { _ = set(aLongTimeAgo) })
	err := op()
	if err != nil {
		if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
			// The conn deadline (mirroring ctx's) fired first; wait out
			// the context's own timer so the caller sees ctx.Err(), not
			// a raw i/o timeout.
			<-ctx.Done()
		}
	}
	if !stop() || ctx.Err() != nil {
		// The cancel hook ran (or is about to): report the context's
		// error, not the deadline artifact it induced.
		_ = set(time.Time{})
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	_ = set(time.Time{})
	return err
}

func (c *tcpConn) Send(ctx context.Context, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.withCancel(ctx, c.c.SetWriteDeadline, func() error {
		buf, err := WriteFrame(c.c, payload, c.wbuf, c.max)
		c.wbuf = buf
		if err != nil && errors.Is(err, net.ErrClosed) {
			return ErrClosed
		}
		return err
	})
}

func (c *tcpConn) Recv(ctx context.Context) ([]byte, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	var payload []byte
	err := c.withCancel(ctx, c.c.SetReadDeadline, func() error {
		var err error
		payload, err = ReadFrame(c.br, c.max)
		if err != nil && errors.Is(err, net.ErrClosed) {
			return ErrClosed
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return payload, nil
}

func (c *tcpConn) Close() error { return c.c.Close() }
