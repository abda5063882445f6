package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Frame codec. Each event or result frame is
//
//	offset 0: 4-byte big-endian payload length n
//	offset 4: n payload bytes
//
// A zero-length payload is a valid frame (4 header bytes, no body). The
// length header is bounded by a cap so a corrupt or hostile peer cannot
// make the receiver allocate gigabytes from four bytes of input.
const (
	// frameHeaderBytes is the fixed frame header size.
	frameHeaderBytes = 4
	// maxFrameBytes caps each frame's payload: 64 MiB, far above any
	// event or result frame and far below an allocation-of-death.
	maxFrameBytes = 64 << 20
)

// errFrameTooLarge reports a payload or length header above the cap.
var errFrameTooLarge = errors.New("wire: frame exceeds size cap")

// errTruncatedFrame reports a buffer that ends mid-header or mid-payload.
var errTruncatedFrame = errors.New("wire: truncated frame")

// appendFrame appends one frame carrying payload to dst and returns the
// extended slice. It fails with errFrameTooLarge, leaving dst unchanged,
// when the payload exceeds limit.
func appendFrame(dst, payload []byte, limit int) ([]byte, error) {
	if len(payload) > limit {
		return dst, fmt.Errorf("%w: %d bytes, cap %d", errFrameTooLarge, len(payload), limit)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...), nil
}

// decodeFrame decodes the first frame in buf, returning its payload and
// the remaining bytes. The payload aliases buf — callers that keep it
// must copy. Errors: errTruncatedFrame when buf ends before the frame
// does, errFrameTooLarge when the header declares more than limit bytes.
func decodeFrame(buf []byte, limit int) (payload, rest []byte, err error) {
	if len(buf) < frameHeaderBytes {
		return nil, buf, fmt.Errorf("%w: %d header bytes of %d", errTruncatedFrame, len(buf), frameHeaderBytes)
	}
	n := binary.BigEndian.Uint32(buf)
	if uint64(n) > uint64(limit) {
		return nil, buf, fmt.Errorf("%w: header declares %d bytes, cap %d", errFrameTooLarge, n, limit)
	}
	body := buf[frameHeaderBytes:]
	if uint64(len(body)) < uint64(n) {
		return nil, buf, fmt.Errorf("%w: %d payload bytes of %d", errTruncatedFrame, len(body), n)
	}
	return body[:n:n], body[n:], nil
}
