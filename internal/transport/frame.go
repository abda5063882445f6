package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Wire framing for the TCP transport. Each message is one frame:
//
//	offset 0: 4-byte big-endian payload length n
//	offset 4: n payload bytes
//
// A zero-length payload is a valid frame (4 header bytes, no body) —
// collectives never send empty chunks, but the framing layer must not
// confuse "empty message" with "no message". The length header is
// bounded by a per-connection cap so a corrupt or hostile peer cannot
// make the receiver allocate gigabytes from four bytes of input.
const (
	// FrameHeaderBytes is the fixed frame header size.
	FrameHeaderBytes = 4
	// DefaultMaxFrameBytes caps the payload length a conn will accept or
	// produce unless configured otherwise (64 MiB — far above any ring
	// chunk this repository sends and the recon/wire binary frames that
	// share the cap, far below an allocation-of-death).
	DefaultMaxFrameBytes = 64 << 20
	// maxFrameLimit is the hard ceiling of any configured cap: the
	// length field is 32 bits.
	maxFrameLimit = 1<<32 - 1
)

// ErrFrameTooLarge reports a length header above the receiver's cap.
var ErrFrameTooLarge = errors.New("transport: frame exceeds size cap")

// ErrTruncatedFrame reports a buffer that ends mid-header or mid-payload.
var ErrTruncatedFrame = errors.New("transport: truncated frame")

// AppendFrame appends one frame carrying payload to dst and returns the
// extended slice. It fails with ErrFrameTooLarge when the payload
// exceeds max (0 means DefaultMaxFrameBytes).
func AppendFrame(dst, payload []byte, max int) ([]byte, error) {
	if max <= 0 {
		max = DefaultMaxFrameBytes
	}
	if len(payload) > max || len(payload) > maxFrameLimit {
		return dst, fmt.Errorf("%w: %d bytes, cap %d", ErrFrameTooLarge, len(payload), max)
	}
	var hdr [FrameHeaderBytes]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...), nil
}

// DecodeFrame decodes the first frame in buf, returning its payload and
// the remaining bytes. The payload aliases buf — callers that keep it
// must copy. Errors: ErrTruncatedFrame when buf ends before the frame
// does, ErrFrameTooLarge when the header declares more than max bytes
// (0 means DefaultMaxFrameBytes).
func DecodeFrame(buf []byte, max int) (payload, rest []byte, err error) {
	if max <= 0 {
		max = DefaultMaxFrameBytes
	}
	if len(buf) < FrameHeaderBytes {
		return nil, buf, fmt.Errorf("%w: %d header bytes of %d", ErrTruncatedFrame, len(buf), FrameHeaderBytes)
	}
	n := binary.BigEndian.Uint32(buf)
	if uint64(n) > uint64(max) {
		return nil, buf, fmt.Errorf("%w: header declares %d bytes, cap %d", ErrFrameTooLarge, n, max)
	}
	body := buf[FrameHeaderBytes:]
	if uint64(len(body)) < uint64(n) {
		return nil, buf, fmt.Errorf("%w: %d payload bytes of %d", ErrTruncatedFrame, len(body), n)
	}
	return body[:n:n], body[n:], nil
}

// ReadFrame reads one whole frame from r and returns its payload
// (zero-length payloads yield an empty, non-nil slice). A stream that
// ends cleanly between frames reports io.EOF; one that ends mid-frame
// reports ErrTruncatedFrame.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	if max <= 0 {
		max = DefaultMaxFrameBytes
	}
	var hdr [FrameHeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: stream ended mid-header", ErrTruncatedFrame)
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if uint64(n) > uint64(max) {
		return nil, fmt.Errorf("%w: header declares %d bytes, cap %d", ErrFrameTooLarge, n, max)
	}
	payload := make([]byte, n)
	if m, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: stream ended after %d of %d payload bytes", ErrTruncatedFrame, m, n)
	}
	return payload, nil
}

// WriteFrame writes one frame carrying payload to w as a single Write
// (header and payload coalesced into scratch, which is grown and
// returned for reuse so steady-state sends do not allocate).
func WriteFrame(w io.Writer, payload, scratch []byte, max int) ([]byte, error) {
	buf, err := AppendFrame(scratch[:0], payload, max)
	if err != nil {
		return scratch, err
	}
	_, err = w.Write(buf)
	return buf, err
}
