package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// The frame-cap boundary: a payload of exactly the cap must round-trip
// through encode and decode; cap+1 must fail cleanly (typed error, input
// untouched) on both. The tests pin `len(payload) > limit` on encode and
// `declared > limit` on decode against off-by-one regressions.

// capFrame builds a raw frame whose header declares n bytes and whose
// body carries body bytes (allowing header/body mismatches).
func capFrame(n uint32, body int) []byte {
	buf := binary.BigEndian.AppendUint32(nil, n)
	return append(buf, make([]byte, body)...)
}

func TestFrameCapBoundaryRoundTrip(t *testing.T) {
	const limit = 16 // a small cap exercises the same comparisons as 64 MiB, cheaply
	payload := bytes.Repeat([]byte{0xAB}, limit)

	framed, err := appendFrame(nil, payload, limit)
	if err != nil {
		t.Fatalf("appendFrame at cap: %v", err)
	}
	if len(framed) != frameHeaderBytes+limit {
		t.Fatalf("framed length %d, want %d", len(framed), frameHeaderBytes+limit)
	}

	got, rest, err := decodeFrame(framed, limit)
	if err != nil {
		t.Fatalf("decodeFrame at cap: %v", err)
	}
	if !bytes.Equal(got, payload) || len(rest) != 0 {
		t.Fatalf("decode at cap: %d payload bytes, %d rest", len(got), len(rest))
	}
}

func TestFrameCapBoundaryOverflow(t *testing.T) {
	const limit = 16

	// Encode: cap+1 payload must fail without growing dst.
	dst := []byte("prefix")
	out, err := appendFrame(dst, make([]byte, limit+1), limit)
	if !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("appendFrame cap+1 err = %v, want errFrameTooLarge", err)
	}
	if !bytes.Equal(out, dst) {
		t.Fatal("failed appendFrame must return dst unchanged")
	}

	// Decode: a crafted header declaring cap+1 must fail even when the
	// body bytes are actually present.
	if _, _, err := decodeFrame(capFrame(limit+1, limit+1), limit); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("decodeFrame cap+1 err = %v, want errFrameTooLarge", err)
	}

	// A header declaring exactly the cap with a short body is truncation,
	// not oversize — the cap check must not mask it.
	if _, _, err := decodeFrame(capFrame(limit, limit-1), limit); !errors.Is(err, errTruncatedFrame) {
		t.Fatalf("decodeFrame short-at-cap err = %v, want errTruncatedFrame", err)
	}
}

// TestFrameCapBoundaryDefault runs the same boundary once at the real
// 64 MiB cap, so the test covers the production constant and not just a
// scaled-down stand-in. Only the encode side materializes the payload;
// the decode side uses a crafted header to avoid a second 64 MiB
// allocation.
func TestFrameCapBoundaryDefault(t *testing.T) {
	payload := make([]byte, maxFrameBytes)
	framed, err := appendFrame(nil, payload, maxFrameBytes)
	if err != nil {
		t.Fatalf("appendFrame at cap: %v", err)
	}
	if _, _, err := decodeFrame(framed, maxFrameBytes); err != nil {
		t.Fatalf("decodeFrame at cap: %v", err)
	}
	if _, err := appendFrame(nil, append(payload, 0), maxFrameBytes); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("appendFrame cap+1 err = %v, want errFrameTooLarge", err)
	}
	overHdr := binary.BigEndian.AppendUint32(nil, maxFrameBytes+1)
	if _, _, err := decodeFrame(overHdr, maxFrameBytes); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("decodeFrame cap+1 err = %v, want errFrameTooLarge", err)
	}
}
