package wire

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeRequest is the decode fuzz target for the binary request
// format: arbitrary bytes must never panic or over-allocate, and any
// input that decodes successfully must re-encode to the same bytes and
// re-decode to the same value (one canonical encoding per message).
func FuzzDecodeRequest(f *testing.F) {
	seed := func(req *Request) {
		buf, err := AppendRequest(nil, req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	seed(&Request{})
	seed(testRequest())
	seed(&Request{Synthetic: &Synthetic{Count: 1, Seed: 1}})
	seed(&Request{Events: []Event{{Hits: make([]Hit, 0), Features: make([][]float64, 0)}}})
	// Corrupt variants: bad magic, truncation, trailing garbage.
	valid, _ := AppendRequest(nil, testRequest())
	f.Add([]byte{})
	f.Add(valid[:4])
	f.Add(valid[:len(valid)-1])
	f.Add(append(append([]byte(nil), valid...), 0))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data)
		if err != nil {
			return
		}
		buf, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("decoded request fails to re-encode: %v", err)
		}
		if string(buf) != string(data) {
			t.Fatalf("re-encode differs: got %d bytes, input %d bytes", len(buf), len(data))
		}
		// Equality via re-encoded bytes, not DeepEqual: the payload may
		// carry NaNs, whose bit patterns the wire preserves but DeepEqual
		// refuses to call equal.
		again, err := DecodeRequest(buf)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		buf2, err := AppendRequest(nil, again)
		if err != nil {
			t.Fatalf("re-decode re-encode: %v", err)
		}
		if string(buf2) != string(buf) {
			t.Fatal("re-decode changes the message")
		}
	})
}

// FuzzDecodeResponse mirrors FuzzDecodeRequest for the response side,
// which the benchmark's serving workload and other clients decode
// from server replies.
func FuzzDecodeResponse(f *testing.F) {
	seed := func(resp *Response) {
		buf, err := AppendResponse(nil, resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	seed(&Response{})
	seed(testResponse())
	valid, _ := AppendResponse(nil, testResponse())
	f.Add([]byte{})
	f.Add(valid[:len(valid)-1])
	f.Add(append(append([]byte(nil), valid...), 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := DecodeResponse(data)
		if err != nil {
			return
		}
		buf, err := AppendResponse(nil, resp)
		if err != nil {
			t.Fatalf("decoded response fails to re-encode: %v", err)
		}
		if string(buf) != string(data) {
			t.Fatalf("re-encode differs: got %d bytes, input %d bytes", len(buf), len(data))
		}
	})
}

// FuzzFrameDecode: the frame decoder must uphold its contract for ANY
// byte stream a peer could send — truncated frames, oversized length
// headers, zero-length payloads, garbage — without panicking and without
// allocating beyond the cap. Valid decodes must roundtrip through
// appendFrame byte-for-byte.
func FuzzFrameDecode(f *testing.F) {
	const limit = 1 << 16 // small cap so the fuzzer can reach both sides of it

	valid, _ := appendFrame(nil, []byte("payload"), limit)
	empty, _ := appendFrame(nil, nil, limit)
	f.Add([]byte{})                                     // no header at all
	f.Add([]byte{0, 0})                                 // truncated header
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2})         // oversized length header
	f.Add(empty)                                        // zero-length payload
	f.Add(valid)                                        // one well-formed frame
	f.Add(append(append([]byte{}, valid...), empty...)) // two frames back to back
	f.Add(valid[:len(valid)-2])                         // truncated payload
	f.Add([]byte{0, 0, 0, 9, 'x'})                      // header promises more than follows

	// Boundary seeds at the cap itself: exactly cap must round-trip, one
	// past it must classify as oversized, and a cap-sized header over a
	// short body is truncation. The two small crafted headers are also
	// checked into testdata/fuzz as seed-cap-plus-one and
	// seed-at-cap-truncated.
	atCap, _ := appendFrame(nil, make([]byte, limit), limit)
	f.Add(atCap)
	f.Add([]byte{0x00, 0x01, 0x00, 0x01})      // header declares cap+1
	f.Add([]byte{0x00, 0x01, 0x00, 0x00, 'x'}) // declares cap, body truncated

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, rest, err := decodeFrame(data, limit)
		if err != nil {
			if !errors.Is(err, errFrameTooLarge) && !errors.Is(err, errTruncatedFrame) {
				t.Fatalf("unexpected decodeFrame error class: %v", err)
			}
			// Failed decodes must leave the input untouched in rest.
			if !bytes.Equal(rest, data) {
				t.Fatal("failed decode consumed input")
			}
			return
		}

		// Structural postconditions of a successful decode.
		if len(payload) > limit {
			t.Fatalf("payload %d bytes exceeds cap %d", len(payload), limit)
		}
		if len(payload)+frameHeaderBytes+len(rest) != len(data) {
			t.Fatalf("consumed bytes don't add up: %d payload + %d rest of %d",
				len(payload), len(rest), len(data))
		}

		// Roundtrip: re-encoding the decoded payload reproduces the
		// consumed prefix exactly.
		re, aerr := appendFrame(nil, payload, limit)
		if aerr != nil {
			t.Fatalf("re-encode failed: %v", aerr)
		}
		if !bytes.Equal(re, data[:len(data)-len(rest)]) {
			t.Fatal("re-encoded frame differs from consumed input prefix")
		}

		// Chained decoding of rest must never panic and must make
		// progress or fail cleanly (bounds the loop by construction).
		for len(rest) > 0 {
			p, rest2, err := decodeFrame(rest, limit)
			if err != nil {
				break
			}
			if len(p)+frameHeaderBytes+len(rest2) != len(rest) {
				t.Fatal("chained decode lost bytes")
			}
			rest = rest2
		}
	})
}
